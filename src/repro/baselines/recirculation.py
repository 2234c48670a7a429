"""A current-generation multi-pipelined switch with packet re-circulation.

Models the state of the art described in §2.3:

* **static port-to-pipeline mapping** — port ``p`` belongs to pipeline
  ``p // (num_ports / k)`` (the Tofino layout);
* **no state sharing between pipelines** — register indexes are sharded
  statically at configuration time and never move (arrays that share a
  stage share one pipeline, as in a real stage);
* **re-circulation** — a packet that needs state resident in another
  pipeline finishes its current pass and re-enters the target pipeline's
  input, paying a full pipeline traversal per extra pipeline visited and
  competing with fresh arrivals for the input slot (re-circulated
  packets are admitted first).

Each compiled stage runs once per packet, as a packet transaction does
on a single pipeline. The resolution stage runs at the packet's first
admission; a pass then runs the packet's next stages in order, one
stage per tick, and stops before the first stage holding a planned
access whose state lives in another pipeline. Neither arrival-order
state access (C1) nor line rate is guaranteed — which is exactly what
§4.3.2's microbenchmarks measure.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..compiler.codegen import CompiledProgram
from ..compiler.jit import compile_operand_reader
from ..errors import ConfigError
from ..mp5.packet import DataPacket, private_packet
from ..mp5.stats import SwitchStats

RECIRC_LATENCY = 1  # extra ticks from egress back to an input


@dataclass
class RecircConfig:
    """Parameters of the re-circulating baseline switch."""

    num_pipelines: int = 4
    num_ports: int = 64
    pipeline_depth: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.num_pipelines < 1:
            raise ConfigError("num_pipelines must be >= 1")
        if self.num_ports < self.num_pipelines:
            raise ConfigError("need at least one port per pipeline")
        if self.pipeline_depth < 2:
            raise ConfigError("pipeline_depth must be >= 2")


class RecirculationSwitch:
    """Tick-driven simulator of the re-circulating baseline."""

    def __init__(self, program: CompiledProgram, config: Optional[RecircConfig] = None):
        self.program = program
        self.config = config or RecircConfig()
        cfg = self.config
        self.depth = max(cfg.pipeline_depth, program.stage_count)
        self.registers = program.make_register_store()
        self._stage_fns = program.jit_stage_functions()
        rng = np.random.default_rng(cfg.seed)

        # Static random sharding, never updated (§2.3). Every pinned
        # array draws a pipeline, but co-staged arrays (one pin_key)
        # all take their group's first draw: a pass runs a stage whole.
        self.index_to_pipeline: Dict[str, np.ndarray] = {}
        pinned: Dict[str, int] = {}
        for plan in program.arrays_in_stage_order():
            if plan.shardable and cfg.num_pipelines > 1:
                mapping = rng.integers(
                    0, cfg.num_pipelines, size=plan.size, dtype=np.int32
                )
            else:
                pipe = pinned.setdefault(
                    plan.pin_key, rng.integers(0, cfg.num_pipelines)
                )
                mapping = np.full(plan.size, pipe, dtype=np.int32)
            self.index_to_pipeline[plan.name] = mapping

        # (stage, mapping, guard reader, index reader) per array, in
        # stage order: what address resolution evaluates per packet.
        self._plans = [
            (
                plan.stage,
                self.index_to_pipeline[plan.name],
                compile_operand_reader(plan.guard_operand)
                if plan.guard_operand is not None and plan.guard_resolvable
                else None,
                compile_operand_reader(plan.index_operand)
                if plan.index_operand is not None
                else None,
            )
            for plan in program.arrays_in_stage_order()
        ]

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

    def _resolve(self, pkt: DataPacket) -> List[Tuple[int, int]]:
        """Run the resolution stage and plan the packet's accesses as
        (stage, pipeline) pairs in stage order (the baseline still knows
        its program's access pattern; what it lacks is steering,
        sharding and ordering machinery)."""
        resolution = self._stage_fns[0]
        if resolution is not None:
            resolution(pkt.headers, self.registers, pkt.env)
        env = pkt.env
        homes = []
        for stage, mapping, guard_read, index_read in self._plans:
            if guard_read is not None and not guard_read(env):
                continue
            index = index_read(env) if index_read is not None else 0
            homes.append((stage, int(mapping[index % len(mapping)])))
        return homes

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

        stage_count = self.program.stage_count
        # Per packet id: planned (stage, pipeline) accesses, and the
        # first stage it has not run yet.
        homes: List[Optional[List[Tuple[int, int]]]] = [None] * len(packets)
        next_stage = [1] * len(packets)
        pending = deque(packets)
        fresh: List[Deque[DataPacket]] = [deque() for _ in range(cfg.num_pipelines)]
        recirc: List[Deque[DataPacket]] = [deque() for _ in range(cfg.num_pipelines)]
        # (due_tick, seq, target_pipe, packet) — packets in the loopback.
        loopback: List[Tuple[int, int, int, DataPacket]] = []
        # (exec_tick, seq, packet, stage or -1 for the pass's end,
        #  pipeline to re-circulate to at the end or -1 to egress)
        events: List[Tuple[int, int, DataPacket, int, int]] = []
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
                if recirc[pipe]:
                    pkt = recirc[pipe].popleft()
                elif fresh[pipe]:
                    pkt = fresh[pipe].popleft()
                else:
                    continue
                pid = pkt.pkt_id
                if homes[pid] is None:
                    homes[pid] = self._resolve(pkt)
                self.total_passes += 1
                start = next_stage[pid]
                stop, target = stage_count, -1
                for stage, home in homes[pid]:
                    if stage >= start and home != pipe:
                        stop, target = stage, home
                        break
                next_stage[pid] = stop
                for stage in range(start, stop):
                    heapq.heappush(events, (tick + stage, next(seq), pkt, stage, -1))
                heapq.heappush(
                    events, (tick + self.depth - 1, next(seq), pkt, -1, target)
                )
            # Execute this tick's stage events in deterministic order.
            while events and events[0][0] <= tick:
                _t, _s, pkt, stage, target = heapq.heappop(events)
                if stage >= 0:
                    self._execute_stage(pkt, stage)
                elif target < 0:
                    self._egress(pkt, tick)
                    live -= 1
                else:
                    self.total_recirculations += 1
                    heapq.heappush(
                        loopback,
                        (tick + 1 + RECIRC_LATENCY, next(seq), target, pkt),
                    )
            tick += 1

        self.stats.ticks = tick
        return self.stats

    # ------------------------------------------------------------------

    def _execute_stage(self, pkt: DataPacket, stage: int) -> None:
        fn = self._stage_fns[stage]
        if fn is None:
            return
        if self._record_access_order:
            access_order = self.stats.access_order

            def logger(reg, idx, kind, _pid=pkt.pkt_id):
                order = access_order.setdefault((reg, idx), [])
                if not order or order[-1] != _pid:
                    order.append(_pid)

        else:
            logger = None
        fn(pkt.headers, self.registers, pkt.env, logger)

    def _egress(self, pkt: DataPacket, tick: int) -> None:
        pkt.egress_tick = tick
        self.stats.egressed += 1
        self.stats.egress_ticks.append(tick)
        if pkt.flow_id is not None:
            self.stats.flow_egress.setdefault(pkt.flow_id, []).append(pkt.pkt_id)

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
