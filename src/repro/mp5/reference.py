"""Dense reference engine: the executable specification of one MP5 tick.

:class:`MP5Switch` runs a sparse fast path (worklist movement, in-place
occupancy, precompiled operand readers, incremental queue telemetry).
This module keeps the original dense semantics — full ``k × depth`` slot
scans, a fresh occupancy grid per tick, per-packet operand-reader
closures, and queue-depth telemetry recomputed by walking every FIFO
slot — exactly as the engine was first written. It exists so the fast
path can be *differentially* tested: ``tests/test_fastpath_equivalence``
runs fuzzed programs and traces through both engines and asserts
tick-for-tick identical :class:`~repro.mp5.stats.SwitchStats` and final
register state.

The reference intentionally recomputes occupancy from the slots rather
than trusting the FIFOs' incremental counters, so a counter bug in
:mod:`repro.mp5.fifo` shows up as a telemetry divergence instead of
being hidden by shared bookkeeping.
"""

from __future__ import annotations

from typing import Deque, List, Optional

from ..compiler.tac import Const
from ..domino.builtins import hash2
from .fifo import IdealOrderBuffer
from .packet import DataPacket, PhantomPacket, StateAccess
from .switch import FLOW_ORDER_ARRAY, MP5Switch


def _slot_data_occupancy(fifo) -> int:
    """Count queued data packets by walking the slots (seed semantics)."""
    if isinstance(fifo, IdealOrderBuffer):
        return sum(
            1
            for q in fifo.queues.values()
            for s in q
            if not s.is_phantom and not s.consumed
        )
    return sum(
        1 for b in fifo.buffers for s in b if not s.is_phantom and not s.consumed
    )


class ReferenceSwitch(MP5Switch):
    """MP5 switch with the original dense per-tick semantics.

    The executable specification the fast path is verified against: it
    rebuilds the full k x depth occupancy grid every tick and takes no
    shortcuts (no tail teleport, no sparse worklists), so its behaviour
    is the plain reading of the §3 tick. Differential tests assert both
    engines produce identical :class:`~repro.mp5.stats.SwitchStats`,
    registers, and canonical event streams on every program, config —
    and, via ``attach_faults``, every fault schedule.
    """

    engine = "dense"

    def start(
        self,
        max_ticks: Optional[int] = None,
        record_access_order: bool = False,
    ) -> None:
        super().start(max_ticks, record_access_order)
        # The oracle steps every tick of a faulted run: the fast
        # engine's teleports across stalls are checked against it.
        if self._faults is not None:
            self._idle_ok = False

    def _quiet(self) -> bool:
        # No sparse worklist here: quiet needs an empty switch.
        return self._live == 0 and super()._quiet()

    def _run_resolution(self, headers, registers, env):
        """Execute the stage-0 (address resolution) program against the
        given state and return an operand-value reader."""
        self._run_stage0(headers, registers, env)

        def value(operand):
            if isinstance(operand, Const):
                return operand.value
            return env[operand.name]

        return value

    def _choose_entry_pipe(self, pkt: DataPacket) -> int:
        if self.config.spray_policy != "affinity":
            return self._spray_next
        value = self._run_resolution(
            dict(pkt.headers), self.registers, dict(pkt.env)
        )
        for _stage, plans in self._plans_by_stage:
            plan = plans[0]
            if len(plans) == 1:
                if plan.guard_operand is not None and plan.guard_resolvable:
                    if not value(plan.guard_operand):
                        continue
                if plan.index_operand is not None and plan.shardable:
                    index = value(plan.index_operand) % plan.size
                else:
                    index = None
            else:
                index = None
            return self.sharder.lookup(plan.name, index)
        return self._spray_next

    def _inject(self, pkt: DataPacket, pipe: int) -> None:
        """Address-resolution stage with per-packet operand closures."""
        cfg = self.config
        pkt.entry_pipeline = pipe
        pkt.entry_tick = self.tick
        self.occ[pipe][0] = pkt
        self._live += 1

        value = self._run_resolution(pkt.headers, self.registers, pkt.env)

        accesses: List[StateAccess] = []
        for stage, plans in self._plans_by_stage:
            if len(plans) == 1:
                plan = plans[0]
                if plan.guard_operand is not None and plan.guard_resolvable:
                    if not value(plan.guard_operand):
                        continue  # resolved: this packet never touches it
                if plan.index_operand is not None and plan.shardable:
                    index = value(plan.index_operand) % plan.size
                else:
                    index = None
                dest = self.sharder.note_resolved(plan.name, index)
                accesses.append(
                    StateAccess(
                        array=plan.name,
                        stage=stage,
                        pipeline=dest,
                        index=index,
                        conservative=plan.conservative_phantom,
                    )
                )
            else:
                dest = self.sharder.note_resolved(plans[0].name, None)
                accesses.append(
                    StateAccess(
                        array="+".join(p.name for p in plans),
                        stage=stage,
                        pipeline=dest,
                        index=None,
                        conservative=any(p.conservative_phantom for p in plans),
                    )
                )
        if self._flow_order_stage is not None:
            flow_key = pkt.headers.get(cfg.flow_order_field, 0)
            if pkt.flow_id is None:
                pkt.flow_id = flow_key
            index = hash2(flow_key, 0x5F0E) % cfg.flow_order_size
            dest = self.sharder.note_resolved(FLOW_ORDER_ARRAY, index)
            accesses.append(
                StateAccess(
                    array=FLOW_ORDER_ARRAY,
                    stage=self._flow_order_stage,
                    pipeline=dest,
                    index=index,
                )
            )
        pkt.accesses = accesses
        obs = self.obs
        if obs is not None:
            obs.ingress(self.tick, pkt.pkt_id, pipe, pkt.port, pkt.flow_id)

        if cfg.enable_phantoms:
            faults = self._faults
            for access in accesses:
                phantom = PhantomPacket(
                    pkt_id=pkt.pkt_id,
                    array=access.array,
                    index=access.index,
                    pipeline=access.pipeline,
                    stage=access.stage,
                    created_tick=self.tick,
                )
                self.stats.phantoms_generated += 1
                if obs is not None:
                    obs.phantom_emit(
                        self.tick,
                        pkt.pkt_id,
                        access.pipeline,
                        access.stage,
                        access.array,
                        access.index,
                    )
                delay = cfg.phantom_latency
                if faults is not None:
                    lost, extra = faults.phantom_fault(
                        pkt.pkt_id, access.pipeline, access.stage
                    )
                    if lost:
                        self.stats.phantoms_lost += 1
                        if obs is not None:
                            obs.phantom_loss(
                                self.tick,
                                pkt.pkt_id,
                                access.pipeline,
                                access.stage,
                                access.array,
                            )
                        continue
                    delay += extra
                if delay == 0:
                    if not self._deliver_phantom(phantom, pipe):
                        self._drop(pkt, "phantom_fifo_full")
                        self.occ[pipe][0] = None
                        return
                else:
                    self._phantom_mail.setdefault(
                        self.tick + delay, []
                    ).append((phantom, pipe))

    def _step(self, pending: Deque[DataPacket]) -> None:
        cfg = self.config
        tick = self.tick
        obs = self.obs

        # (0) Fault windows open/close at the tick boundary (same
        # injector protocol as the fast engine).
        faults = self._faults
        if faults is not None:
            faults.begin_tick(tick, self)
            stalled = faults.stalled
            xfail = faults.crossbar_failed
        else:
            stalled = None
            xfail = None

        # (1) Phantom deliveries scheduled for this tick.
        for phantom, fifo_id in self._phantom_mail.pop(tick, ()):
            self._deliver_phantom(phantom, fifo_id)

        # (2) Injections, strictly in arrival order.
        injected = 0
        while (
            pending
            and pending[0].arrival <= tick
            and injected < cfg.num_pipelines
        ):
            pipe = self._choose_entry_pipe(pending[0])
            probed = 0
            blocked = stalled is not None and pipe in stalled
            while (
                self.occ[pipe][0] is not None or blocked
            ) and probed < cfg.num_pipelines:
                pipe = (pipe + 1) % cfg.num_pipelines
                blocked = stalled is not None and pipe in stalled
                probed += 1
            if self.occ[pipe][0] is not None or blocked:
                break
            self._inject(pending.popleft(), pipe)
            self._spray_next = (pipe + 1) % cfg.num_pipelines
            injected += 1

        # (3) Movement using a full occupancy snapshot and a fresh grid.
        new_occ: List[List[Optional[DataPacket]]] = [
            [None] * self.depth for _ in range(cfg.num_pipelines)
        ]
        last = self.depth - 1
        if self.crossbar is not None:
            self.crossbar.begin_tick()
        for pipe in range(cfg.num_pipelines):
            row = self.occ[pipe]
            if stalled is not None and pipe in stalled:
                # Stalled pipeline: its packets freeze in place.
                new_occ[pipe] = row[:]
                continue
            for stage in range(self.depth):
                pkt = row[stage]
                if pkt is None:
                    continue
                if stage == last:
                    self._egress(pkt)
                    continue
                access = pkt.access_at_stage(stage + 1)
                if access is None:
                    if self.crossbar is not None:
                        self.crossbar.record(pipe, pipe, stage + 1)
                    new_occ[pipe][stage + 1] = pkt
                    continue
                dest = access.pipeline
                if xfail is not None and dest in xfail:
                    self._drop(pkt, "crossbar_down")
                    continue
                if self.crossbar is not None:
                    self.crossbar.record(pipe, dest, stage + 1)
                if dest != pipe:
                    self.stats.steering_moves += 1
                if obs is not None:
                    obs.steer(tick, pkt.pkt_id, pipe, dest, stage + 1)
                fifo = self.fifos[(dest, stage + 1)]
                if cfg.enable_phantoms:
                    if (
                        cfg.ecn_threshold is not None
                        and not pkt.ecn_marked
                        and _slot_data_occupancy(fifo) >= cfg.ecn_threshold
                    ):
                        pkt.ecn_marked = True
                        self.stats.ecn_marked += 1
                        if obs is not None:
                            obs.ecn_mark(tick, pkt.pkt_id, dest, stage + 1)
                    ok = fifo.insert(pkt, tick)
                    if ok:
                        if obs is not None:
                            obs.phantom_match(tick, pkt.pkt_id, dest, stage + 1)
                    else:
                        self._drop(pkt, "no_phantom")
                else:
                    ok = fifo.push(pkt, pipe, tick)
                    if not ok:
                        self._drop(pkt, "fifo_full")

        if self.crossbar is not None:
            self.crossbar.end_tick()

        # (4) Pops: fill free slots of stateful stages.
        for (pipe, stage), fifo in self.fifos.items():
            if stalled is not None and pipe in stalled:
                continue
            slot = new_occ[pipe][stage]
            if slot is not None:
                if cfg.starvation_threshold is not None:
                    age = fifo.head_data_age(tick)
                    if age is not None and age > cfg.starvation_threshold:
                        self._drop(slot, "starvation_preemption")
                        self.stats.drops_starvation += 1
                        new_occ[pipe][stage] = None
                    else:
                        continue
                else:
                    continue
            popped = fifo.pop()
            if popped is not None:
                new_occ[pipe][stage] = popped
                if obs is not None:
                    obs.fifo_pop(tick, popped.pkt_id, pipe, stage)
            elif obs is not None and fifo.data_occupancy():
                obs.fifo_block(tick, pipe, stage)

        # (5) Service every newly occupied slot, dense scan in
        # (pipeline, stage) order. Every occupied slot is newly occupied
        # *except* on a stalled pipeline, whose packets did not move and
        # must not be re-serviced (their atoms already ran).
        for pipe in range(cfg.num_pipelines):
            if stalled is not None and pipe in stalled:
                continue
            row = new_occ[pipe]
            for stage in range(1, self.depth):
                pkt = row[stage]
                if pkt is not None:
                    self._service(pkt, stage, pipe)

        self.occ = new_occ

        # (6) Background dynamic sharding.
        if (
            cfg.remap_algorithm != "none"
            and tick
            and tick % cfg.remap_period == 0
        ):
            moved = self.sharder.end_epoch(cfg.remap_algorithm)
            self.stats.remap_moves += moved
            if obs is not None:
                obs.remap(tick, moved)

        # Queue-depth telemetry recomputed from the slots every tick.
        for key, fifo in self.fifos.items():
            depth = _slot_data_occupancy(fifo)
            if depth > self.stats.max_queue_depth:
                self.stats.max_queue_depth = depth
            prev = self.stats.per_stage_peak_queue.get(key, 0)
            if depth > prev:
                self.stats.per_stage_peak_queue[key] = depth

        if self._metrics is not None:
            self._metrics.maybe_roll(tick)
        if self._monitor is not None:
            self._monitor.end_tick(tick, self)

        self.tick += 1
