"""A current-generation multi-pipelined switch with packet re-circulation.

Models the state of the art described in §2.3:

* **static port-to-pipeline mapping** — port ``p`` belongs to pipeline
  ``p // (num_ports / k)`` (the Tofino layout);
* **no state sharing between pipelines** — register indexes are sharded
  statically at configuration time and never move;
* **re-circulation** — a packet that needs state resident in another
  pipeline finishes its current pass and re-enters the target pipeline's
  input, paying a full pipeline traversal per extra pipeline visited and
  competing with fresh arrivals for the input slot.

Within one pass a packet performs the maximal stage-ordered *prefix* of
its outstanding accesses whose arrays are resident in the current
pipeline (an access cannot run before the accesses its inputs depend
on). Neither arrival-order state access (C1) nor line rate is
guaranteed — which is exactly what §4.3.2's microbenchmarks measure.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..compiler.codegen import CompiledProgram
from ..compiler.tac import TacEvaluator
from ..errors import ConfigError
from ..mp5.packet import DataPacket, StateAccess, private_packet
from ..mp5.stats import SwitchStats


@dataclass
class RecircConfig:
    """Parameters of the re-circulating baseline switch."""

    num_pipelines: int = 4
    num_ports: int = 64
    pipeline_depth: int = 16
    recirc_latency: int = 1  # extra ticks from egress back to an input
    seed: int = 0
    recirc_priority: bool = True  # recirculated packets admitted first

    def __post_init__(self):
        if self.num_pipelines < 1:
            raise ConfigError("num_pipelines must be >= 1")
        if self.num_ports < self.num_pipelines:
            raise ConfigError("need at least one port per pipeline")
        if self.pipeline_depth < 2:
            raise ConfigError("pipeline_depth must be >= 2")
        if self.recirc_latency < 0:
            raise ConfigError("recirc_latency must be >= 0")


class _RecircEvaluator(TacEvaluator):
    """TAC evaluator that executes register ops only for allowed arrays.

    Disallowed reads define their destination with a placeholder zero;
    the instructions consuming it are re-executed on the pass that
    actually covers the access, so final values are correct.
    """

    def __init__(self, headers, registers, env, allowed: Set[str], on_access=None):
        super().__init__(headers, registers, env, on_access=on_access)
        self.allowed = allowed

    def run_instr(self, instr):
        if instr.is_stateful and instr.reg not in self.allowed:
            if instr.dest is not None:
                self.env.setdefault(instr.dest, 0)
            return
        super().run_instr(instr)


class RecirculationSwitch:
    """Tick-driven simulator of the re-circulating baseline."""

    def __init__(self, program: CompiledProgram, config: Optional[RecircConfig] = None):
        self.program = program
        self.config = config or RecircConfig()
        cfg = self.config
        self.depth = max(cfg.pipeline_depth, program.stage_count)
        self.registers = program.make_register_store()
        rng = np.random.default_rng(cfg.seed)

        # Static random sharding, never updated (§2.3).
        self.index_to_pipeline: Dict[str, np.ndarray] = {}
        for plan in program.arrays_in_stage_order():
            if plan.shardable and cfg.num_pipelines > 1:
                mapping = rng.integers(
                    0, cfg.num_pipelines, size=plan.size, dtype=np.int32
                )
            else:
                mapping = np.full(
                    plan.size, rng.integers(0, cfg.num_pipelines), dtype=np.int32
                )
            self.index_to_pipeline[plan.name] = mapping

        self._ports_per_pipe = max(1, cfg.num_ports // cfg.num_pipelines)
        self.stats = SwitchStats()
        self.total_recirculations = 0
        self.total_passes = 0
        self._record_access_order = False
        self.packets: Optional[List[DataPacket]] = None

    # ------------------------------------------------------------------

    def _pipe_of_port(self, port: int) -> int:
        return min(
            port // self._ports_per_pipe, self.config.num_pipelines - 1
        )

    def _pipe_of_access(self, access: StateAccess) -> int:
        mapping = self.index_to_pipeline[access.array]
        if access.index is None:
            return int(mapping[0])
        return int(mapping[access.index % len(mapping)])

    def _resolve(self, pkt: DataPacket) -> None:
        """Run the address-resolution logic to plan the packet's accesses
        (the baseline still knows its program's access pattern; what it
        lacks is steering, sharding and ordering machinery)."""
        evaluator = TacEvaluator(pkt.headers, self.registers, pkt.env)
        evaluator.run(self.program.stages[0].instrs)
        accesses: List[StateAccess] = []
        by_stage: Dict[int, List] = {}
        for plan in self.program.arrays_in_stage_order():
            by_stage.setdefault(plan.stage, []).append(plan)
        for stage, plans in sorted(by_stage.items()):
            for plan in plans:
                if plan.guard_operand is not None and plan.guard_resolvable:
                    if not evaluator.value(plan.guard_operand):
                        continue
                if plan.index_operand is not None:
                    index = evaluator.value(plan.index_operand) % plan.size
                else:
                    index = None
                accesses.append(
                    StateAccess(
                        array=plan.name,
                        stage=stage,
                        pipeline=-1,  # resolved per pass
                        index=index,
                        conservative=plan.conservative_phantom,
                    )
                )
        pkt.accesses = accesses

    # ------------------------------------------------------------------

    def run(
        self,
        trace: Iterable,
        max_ticks: Optional[int] = None,
        record_access_order: bool = False,
    ) -> SwitchStats:
        """Drive a packet trace (only read, like the MP5 engines') to
        completion; returns run statistics. ``record_access_order``
        keeps the run's own packets, in id order, as :attr:`packets`."""
        cfg = self.config
        self._record_access_order = record_access_order
        packets = [private_packet(i, e) for i, e in enumerate(trace)]
        packets.sort(key=lambda p: (p.arrival, p.port, p.pkt_id))
        for seq, pkt in enumerate(packets):
            pkt.pkt_id = seq
        if record_access_order:
            self.packets = packets
        self.stats.offered = len(packets)
        self.stats.arrival_ticks = [p.arrival for p in packets]

        pending = deque(packets)
        fresh: List[Deque[DataPacket]] = [deque() for _ in range(cfg.num_pipelines)]
        recirc: List[Deque[DataPacket]] = [deque() for _ in range(cfg.num_pipelines)]
        # (due_tick, seq, target_pipe, packet) — packets in the loopback.
        loopback: List[Tuple[int, int, int, DataPacket]] = []
        # (exec_tick, seq, pipe, packet, stage, allowed arrays this pass)
        events: List[Tuple[int, int, int, DataPacket, int, frozenset]] = []
        seq = itertools.count()
        live = len(packets)
        tick = 0

        while live > 0:
            if max_ticks is not None and tick >= max_ticks:
                break
            # Deliver loopback packets whose latency elapsed.
            while loopback and loopback[0][0] <= tick:
                _due, _s, pipe, pkt = heapq.heappop(loopback)
                recirc[pipe].append(pkt)
            # Sort fresh arrivals into their statically mapped pipelines.
            while pending and pending[0].arrival <= tick:
                pkt = pending.popleft()
                fresh[self._pipe_of_port(pkt.port)].append(pkt)
            # Admit at most one packet per pipeline input per tick.
            for pipe in range(cfg.num_pipelines):
                queue_order = (
                    (recirc[pipe], fresh[pipe])
                    if cfg.recirc_priority
                    else (fresh[pipe], recirc[pipe])
                )
                pkt = None
                for queue in queue_order:
                    if queue:
                        pkt = queue.popleft()
                        break
                if pkt is None:
                    continue
                if not pkt.accesses and pkt.entry_tick < 0:
                    self._resolve(pkt)
                pkt.entry_tick = tick
                self.total_passes += 1
                covered = self._covered_prefix(pkt, pipe)
                for stage in range(self.program.stage_count):
                    heapq.heappush(
                        events,
                        (tick + stage, next(seq), pipe, pkt, stage, covered),
                    )
                heapq.heappush(
                    events,
                    (
                        tick + self.depth - 1,
                        next(seq),
                        pipe,
                        pkt,
                        -1,  # completion marker
                        covered,
                    ),
                )
            # Execute this tick's stage events in deterministic order.
            while events and events[0][0] <= tick:
                _t, _s, pipe, pkt, stage, covered = heapq.heappop(events)
                if stage >= 0:
                    self._execute_stage(pkt, stage, covered)
                else:
                    live -= self._complete_pass(pkt, tick, loopback, seq)
            tick += 1

        self.stats.ticks = tick
        return self.stats

    # ------------------------------------------------------------------

    def _covered_prefix(self, pkt: DataPacket, pipe: int) -> frozenset:
        """Arrays this pass may access: the maximal stage-ordered prefix of
        outstanding accesses resident in ``pipe``."""
        covered = set()
        for access in pkt.accesses:
            if access.completed:
                continue
            if self._pipe_of_access(access) != pipe:
                break
            covered.add(access.array)
        return frozenset(covered)

    def _execute_stage(self, pkt: DataPacket, stage: int, covered: frozenset) -> None:
        instrs = self.program.stages[stage].instrs
        if not instrs:
            return
        if self._record_access_order:
            pkt_id = pkt.pkt_id

            def logger(reg, idx, kind, _pid=pkt_id):
                order = self.stats.access_order.setdefault((reg, idx), [])
                if not order or order[-1] != _pid:
                    order.append(_pid)

        else:
            logger = None
        evaluator = _RecircEvaluator(
            pkt.headers, self.registers, pkt.env, covered, on_access=logger
        )
        evaluator.run(instrs)
        if stage > 0:
            for access in pkt.accesses:
                if access.stage == stage and access.array in covered:
                    access.completed = True

    def _complete_pass(self, pkt, tick, loopback, seq) -> int:
        """Handle a packet reaching the pipeline output. Returns 1 when
        the packet is fully processed (egressed), else 0."""
        remaining = [a for a in pkt.accesses if not a.completed]
        if not remaining:
            pkt.egress_tick = tick
            self.stats.egressed += 1
            self.stats.egress_ticks.append(tick)
            if pkt.flow_id is not None:
                self.stats.flow_egress.setdefault(pkt.flow_id, []).append(pkt.pkt_id)
            return 1
        self.total_recirculations += 1
        target = self._pipe_of_access(remaining[0])
        heapq.heappush(
            loopback,
            (tick + 1 + self.config.recirc_latency, next(seq), target, pkt),
        )
        return 0

    @property
    def avg_recirculations(self) -> float:
        return (
            self.total_recirculations / self.stats.offered
            if self.stats.offered
            else 0.0
        )


def run_recirculation(
    program: CompiledProgram,
    trace: Iterable,
    config: Optional[RecircConfig] = None,
    max_ticks: Optional[int] = None,
    record_access_order: bool = False,
) -> Tuple[SwitchStats, RecirculationSwitch]:
    """Convenience runner; returns (stats, switch) so callers can read
    recirculation counts and final registers."""
    switch = RecirculationSwitch(program, config)
    stats = switch.run(
        trace, max_ticks=max_ticks, record_access_order=record_access_order
    )
    return stats, switch
