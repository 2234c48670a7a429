"""The MP5 multi-pipeline switch simulator (§3.2–§3.4).

Architecture per Figure 4: *k* identical feed-forward pipelines, a
crossbar between consecutive stages (D3), a physically separate phantom
channel (D4), and per-stage groups of k FIFOs. Every pipeline runs the
same compiled program (D1); register indexes are dynamically sharded
across pipelines (D2) under the Figure 6 heuristic.

Time model: one tick = one pipeline clock. Each pipeline starts at most
one packet per tick, so aggregate capacity is k packets/tick — the line
rate for minimum-size packets. Within a tick the engine:

1. delivers phantom packets scheduled for this tick;
2. injects arrivals (uniform spray across pipelines), executing the
   address-resolution stage: indexes/guards are evaluated preemptively,
   accesses planned, destination pipelines looked up in the
   index-to-pipeline map, phantoms emitted (in arrival order, preserving
   runtime Invariant 1);
3. moves every in-flight packet one hop: egress from the last stage,
   *insert* into the destination FIFO when the next stage holds one of
   the packet's planned accesses (steering across the crossbar), or a
   linear through-move otherwise — through (stateless-at-that-stage)
   packets take priority over queued stateful packets, which preserves
   runtime Invariant 2;
4. pops from each stateful stage whose service slot is free — a phantom
   at the logical FIFO head blocks the pop (order enforcement);
5. services every newly occupied slot (executes the stage's atom);
6. every ``remap_period`` ticks, runs the dynamic sharding remap and
   resets the access counters.

Fast path
---------

The engine tracks in-flight packets *sparsely*: ``_seated`` lists the
occupied (pipeline, stage) slots, so the movement and service phases are
O(live packets) instead of O(k × depth) dense slot scans. Movement
mutates the occupancy grid in place (per pipeline, higher stages first,
so a through-move never lands on a slot that has not vacated yet) —
no per-tick grid allocation. Queue-depth telemetry reads the FIFOs'
incrementally maintained counters (O(1) per FIFO per tick) instead of
sweeping every slot. These are pure engineering optimizations: the
dense executable specification lives in :mod:`repro.mp5.reference` and
``tests/test_fastpath_equivalence.py`` asserts tick-for-tick identical
statistics and register state between the two.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from operator import itemgetter
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from ..compiler.codegen import CompiledProgram
from ..compiler.jit import compile_operand_reader
from ..domino.builtins import hash2
from ..errors import ConfigError
from ..faults.injector import NEVER, FaultInjector
from .config import MP5Config
from .fifo import IdealOrderBuffer, StageFifoGroup
from .packet import DataPacket, PacketColumns, PhantomPacket, StateAccess, private_packet
from .sharding import ShardingRuntime
from .stats import SwitchStats

FLOW_ORDER_ARRAY = "__flow_order__"

TraceEntry = Union[DataPacket, Tuple[float, int, Dict[str, int]]]

_mail_pipe = itemgetter(0)


class MP5Switch:
    """Simulates one MP5 switch running one compiled program.

    The cycle-level model of §3: k identical feed-forward pipelines
    (D1), crossbar steering between consecutive stages (D3), register
    state dynamically sharded across pipelines via the index-to-pipeline
    map (D2), and phantom packets queued in per-stage k-FIFO groups to
    enforce per-state arrival-order access — correctness condition C1
    (D4). This class is the *fast sparse* engine; its optimizations are
    differentially tested against :class:`~repro.mp5.reference.ReferenceSwitch`,
    the dense executable specification. A fault schedule
    (:mod:`repro.faults`) may be attached before the first tick to
    exercise the degradation paths.

    One instance simulates exactly one trace — register state and
    statistics are cumulative, so ``run`` refuses a second call; use
    :func:`repro.mp5.run_mp5` to get a fresh switch per run.
    """

    #: The engine name that runs: what a served segment record reports.
    engine = "fast"

    def __init__(self, program: CompiledProgram, config: Optional[MP5Config] = None):
        self.program = program
        self.config = config or MP5Config()
        cfg = self.config

        self.depth = max(cfg.pipeline_depth, program.stage_count)
        self.registers: Dict[str, List[int]] = program.make_register_store()

        plans = program.arrays_in_stage_order()
        shard_specs = [(p.name, p.size, p.shardable, p.pin_key) for p in plans]
        self._flow_order_stage: Optional[int] = None
        if cfg.flow_order_field is not None:
            if program.stage_count >= self.depth:
                raise ConfigError(
                    "flow ordering needs a free final stage; increase "
                    "pipeline_depth beyond the program's stage count"
                )
            self._flow_order_stage = self.depth - 1
            shard_specs.append(
                (FLOW_ORDER_ARRAY, cfg.flow_order_size, True, FLOW_ORDER_ARRAY)
            )
            self.registers[FLOW_ORDER_ARRAY] = [0] * cfg.flow_order_size

        self.sharder = ShardingRuntime(
            shard_specs,
            cfg.num_pipelines,
            initial=cfg.initial_shard,
            rng=np.random.default_rng(cfg.seed),
        )

        if cfg.phantom_latency and plans:
            max_latency = min(p.stage for p in plans) - 1
            if cfg.phantom_latency > max_latency:
                raise ConfigError(
                    f"phantom_latency {cfg.phantom_latency} exceeds the slack "
                    f"before the first stateful stage ({max_latency}); phantoms "
                    f"would lose the race against their data packets"
                )

        # Stateful stage locations: per (pipeline, stage) a FIFO group.
        stateful_stages = {p.stage for p in plans}
        if self._flow_order_stage is not None:
            stateful_stages.add(self._flow_order_stage)
        buffer_cls = IdealOrderBuffer if cfg.ideal_queues else StageFifoGroup
        self.fifos: Dict[Tuple[int, int], object] = {
            (pipe, stage): buffer_cls(cfg.num_pipelines, cfg.fifo_capacity)
            for pipe in range(cfg.num_pipelines)
            for stage in stateful_stages
        }
        self.stateful_stages = stateful_stages

        # Per-pipeline service slots (None or the packet serviced this tick).
        self.occ: List[List[Optional[DataPacket]]] = [
            [None] * self.depth for _ in range(cfg.num_pipelines)
        ]
        # Prebound (fifo, occupancy row, stage, key) tuples for the pop
        # and telemetry phases: occupancy rows are mutated in place and
        # never replaced, so binding them once per run is safe.
        self._fifo_scan = [
            (fifo, self.occ[key[0]], key[1], key)
            for key, fifo in self.fifos.items()
        ]
        # Dense [pipe][stage] view of the same FIFOs so the movement and
        # phantom-delivery hot paths index two lists instead of hashing a
        # tuple key per move.
        self._fifo_grid: List[List[Optional[object]]] = [
            [None] * self.depth for _ in range(cfg.num_pipelines)
        ]
        for (pipe, stage), fifo in self.fifos.items():
            self._fifo_grid[pipe][stage] = fifo
        self._phantom_mail: Dict[int, List[Tuple[PhantomPacket, int]]] = {}
        self._spray_next = 0
        self.stats = SwitchStats()
        self.tick = 0
        self._live = 0  # packets injected and not yet egressed/dropped
        self._idle_teleports = 0  # idle stretches compressed by run()
        self._ran = False
        # The run's own packets in id order, kept only under
        # record_access_order (see start()).
        self.packets: Optional[List[DataPacket]] = None
        # Streaming-run state (start()/feed()/pump()/finish()). run() is
        # a thin wrapper over these; the long-lived service drives them
        # directly to pause/resume between arrival batches.
        self._pending: Optional[Deque[DataPacket]] = None
        self._feed_seq = 0  # next arrival-ordered pkt_id to assign
        self._last_feed_key: Optional[Tuple[float, int]] = None
        self._max_ticks: Optional[int] = None
        self._idle_ok = False
        self._finished = False
        # Observability sinks (repro.obs). All default to None and every
        # hot-path hook hides behind a single attribute check, so a run
        # with nothing attached executes the same code it always did.
        self.obs = None  # event sink (recorder/monitor, possibly teed)
        self._recorder = None  # TraceRecorder (duck-typed emitters)
        self._monitor = None  # InvariantMonitor, checked per tick
        self._metrics = None  # MetricsRegistry, polled per window
        self._metrics_latency = None  # latency histogram shortcut
        self._profiler = None  # PhaseProfiler around _step's phases
        # Fault injector (repro.faults), gated like the obs sinks: None
        # keeps every hot path on its fault-free code.
        self._faults = None

        # Plans grouped by stage for resolution-time access planning.
        self._plans_by_stage: List[Tuple[int, List]] = []
        by_stage: Dict[int, List] = {}
        for plan in plans:
            by_stage.setdefault(plan.stage, []).append(plan)
        self._plans_by_stage = sorted(by_stage.items())

        self._stage_instrs = [
            stage.instrs if idx < program.stage_count else []
            for idx, stage in enumerate(program.stages)
        ] + [[] for _ in range(self.depth - program.stage_count)]
        compiled = program.jit_stage_functions()
        self._stage_fns = list(compiled) + [None] * (self.depth - len(compiled))

        # Fast-path state. ``_seated`` holds the occupied (pipe, stage)
        # slots with stage >= 1, sorted; ``_per_pipe`` is a reusable
        # per-pipeline worklist buffer for the movement phase. The
        # resolution plan compiles each stage group's guard/index operand
        # readers once (see jit.compile_operand_reader) so injection
        # builds no closures per packet.
        self._seated: List[Tuple[int, int]] = []
        self._per_pipe: List[List[int]] = [[] for _ in range(cfg.num_pipelines)]
        self._accessed_arrays: List[str] = []
        self._service_pkt_id = -1
        # Stages whose service actually executes something. A through-
        # moved packet by construction has no pending access at its seat
        # (movement queues it into a FIFO otherwise), so servicing it at
        # an instruction-free stage is a provable no-op and is skipped.
        self._stage_live = [bool(instrs) for instrs in self._stage_instrs]
        # First stage T such that every stage in [T, depth) is neither
        # stateful (no FIFO, so no pops, drops or ECN there) nor executes
        # instructions. A packet through-moving into this tail can only
        # advance one stage per tick until it egresses, so its egress
        # tick is fully determined on entry (under faults the injector
        # answers it from the stall windows); movement schedules the
        # egress directly instead of stepping the packet through
        # depth - T no-op hops.
        tail = self.depth
        while (
            tail > 1
            and (tail - 1) not in stateful_stages
            and not self._stage_live[tail - 1]
        ):
            tail -= 1
        self._tail_start = tail
        # Egress tick -> [(pipeline, packet)] of tail packets.
        self._egress_mail: Dict[int, List[Tuple[int, DataPacket]]] = {}
        # (stage, base_name, guard_read, index_read, size, conservative,
        #  access_label, is_multi)
        self._resolution_plans: List[Tuple] = []
        for stage, group in self._plans_by_stage:
            if len(group) == 1:
                plan = group[0]
                guard_read = (
                    compile_operand_reader(plan.guard_operand)
                    if plan.guard_operand is not None and plan.guard_resolvable
                    else None
                )
                index_read = (
                    compile_operand_reader(plan.index_operand)
                    if plan.index_operand is not None and plan.shardable
                    else None
                )
                self._resolution_plans.append(
                    (
                        stage,
                        plan.name,
                        guard_read,
                        index_read,
                        plan.size,
                        plan.conservative_phantom,
                        plan.name,
                        False,
                    )
                )
            else:
                # Co-staged (fused or budget-pinned) arrays share one
                # pipeline; one stage-level access/phantom covers them.
                self._resolution_plans.append(
                    (
                        stage,
                        group[0].name,
                        None,
                        None,
                        0,
                        any(p.conservative_phantom for p in group),
                        "+".join(p.name for p in group),
                        True,
                    )
                )

        # The service-time access callback only has observable effects at
        # stages with a conservative single-array access (wasted-slot
        # accounting consults the accessed-array scratch list there) — or
        # everywhere when the caller asked to record the access order.
        # All other stages run their compiled function callback-free.
        self._stage_needs_log = [False] * self.depth
        for plan_tuple in self._resolution_plans:
            if plan_tuple[5] and not plan_tuple[7]:  # conservative, single
                self._stage_needs_log[plan_tuple[0]] = True
        # Bound in start() and dropped in finish(): a bound method stored
        # on its own instance is a reference cycle, and a finished
        # switch should be freed by refcount, not the cycle collector.
        self._stage_logger: List[Optional[object]] = [None] * self.depth
        # Specialized resolution plan for the common shape — every array
        # single-staged, shardable, guard-free — so injection runs a
        # tight 5-tuple loop; anything else falls back to the generic
        # 8-tuple loop.
        simple: Optional[List[Tuple]] = []
        for plan_tuple in self._resolution_plans:
            (stage, base, guard_read, index_read, size, conservative, _label,
             multi) = plan_tuple
            if multi or guard_read is not None or index_read is None:
                simple = None
                break
            simple.append((stage, base, index_read, size, conservative))
        self._simple_plans = simple

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def attach_observability(
        self, recorder=None, metrics=None, profiler=None, monitor=None
    ) -> None:
        """Attach observability sinks (see :mod:`repro.obs`) to this run.

        ``recorder`` receives per-packet lifecycle events, ``metrics``
        is a registry polled at window boundaries for time series,
        ``profiler`` times the phases of every tick, and ``monitor`` is
        an :class:`~repro.obs.monitor.InvariantMonitor` checking
        invariants online (it consumes the same event stream as the
        recorder; with both attached the stream is teed). Must be
        called before :meth:`run`; any subset may be attached.
        """
        if self._ran:
            raise ConfigError(
                "attach_observability must be called before run(): the "
                "instrumentation hooks are bound at tick time"
            )
        if recorder is not None:
            self._recorder = recorder
        if profiler is not None:
            self._profiler = profiler
        if metrics is not None:
            # Pull samplers: the switch's cumulative counters are read
            # once per window, so publishing adds no per-packet cost.
            self._metrics = metrics
            for name, cumulative, read in self._metric_sources():
                metrics.add_sampler(name, read, cumulative=cumulative)
            self._metrics_latency = metrics.histogram("latency")
        if monitor is not None:
            self._monitor = monitor
            monitor.bind(self)
        if self._recorder is not None and self._monitor is not None:
            from ..obs.monitor import TeeEmitter

            self.obs = TeeEmitter(self._recorder, self._monitor)
        else:
            # Explicit None test: an empty TraceRecorder is falsy (len 0).
            self.obs = (
                self._recorder if self._recorder is not None else self._monitor
            )

    def attach_faults(self, schedule) -> None:
        """Attach a :class:`repro.faults.FaultSchedule` to this run.

        Builds the per-run :class:`~repro.faults.FaultInjector`; like
        :meth:`attach_observability` this must happen before
        :meth:`run`. An empty schedule is accepted and attaches nothing
        (``self._faults`` stays None), so attaching one is
        byte-identical to not attaching at all.
        """
        if self._ran:
            raise ConfigError(
                "attach_faults must be called before run(): fault windows "
                "are applied at tick boundaries from the start of the run"
            )
        if schedule is None or schedule.empty:
            return
        self._faults = FaultInjector(schedule, self.config.num_pipelines)

    def _metric_sources(self) -> List[Tuple[str, bool, Callable[[], int]]]:
        """``(name, cumulative, read)`` of every pull sampler the switch
        publishes, in registration order. This list is the sampler
        schema: the scalar engines register each ``read`` as is, and
        the vector engine registers the same names in the same order
        over the columns it fills per window
        (:func:`repro.obs.reconstruct.feed_window_sinks`) — which is
        what keeps the registries' serialised forms byte-identical."""
        stats = self.stats
        fifos = list(self.fifos.values())

        def depths():
            return [f.data_occupancy() for f in fifos]

        sources = [
            (name, True, partial(getattr, stats, name))
            for name in (
                "egressed",
                "dropped",
                "steering_moves",
                "remap_moves",
                "phantoms_generated",
                "phantoms_lost",
                "ecn_marked",
                "wasted_slots",
            )
        ]
        sources += [
            ("queue_depth_max", False, lambda: max(depths(), default=0)),
            ("queue_depth_total", False, lambda: sum(depths())),
            ("fifo_drops_full", True, lambda: sum(f.drops_full for f in fifos)),
            (
                "fifo_drops_no_phantom",
                True,
                lambda: sum(f.drops_no_phantom for f in fifos),
            ),
        ]
        sources += [
            (f"queue_depth.p{pipe}.s{stage}", False, fifo.data_occupancy)
            for (pipe, stage), fifo in self.fifos.items()
        ]
        sources.append(("sharder_moves", True, self.sharder.total_moves))
        return sources

    def public_registers(self) -> Dict[str, List[int]]:
        """The program's register arrays — what a run returns: every
        array but the engine's own flow-order bookkeeping."""
        return {
            name: values
            for name, values in self.registers.items()
            if name != FLOW_ORDER_ARRAY
        }

    def run(
        self,
        trace: Iterable[TraceEntry],
        max_ticks: Optional[int] = None,
        record_access_order: bool = False,
    ) -> SwitchStats:
        """Drive a packet trace to completion and return run statistics.

        ``trace`` (packets, ``(arrival_tick, port, headers)`` tuples or
        one :class:`PacketColumns` batch) is only read, see :meth:`feed`.
        Arrival ticks are in MP5 pipeline clocks; at minimum packet size
        the line rate is ``num_pipelines`` packets per tick.

        Equivalent to ``start(); feed(trace); pump(); finish()`` — the
        streaming primitives the long-lived service drives directly.
        """
        self.start(max_ticks=max_ticks, record_access_order=record_access_order)
        self.feed(trace)
        self.pump()
        return self.finish()

    # ------------------------------------------------------------------
    # Streaming run loop: start / feed / pump / finish
    # ------------------------------------------------------------------

    def start(
        self,
        max_ticks: Optional[int] = None,
        record_access_order: bool = False,
    ) -> None:
        """Begin a streaming run.

        After ``start()`` the switch accepts arrival batches through
        :meth:`feed` and advances through :meth:`pump`; :meth:`finish`
        closes the run and returns the stats. Observability sinks and
        fault schedules must already be attached — ``start`` freezes the
        instrumentation set exactly like ``run`` did.

        ``record_access_order`` is the audit mode: ``stats.access_order``
        records each state's access sequence, and :attr:`packets` keeps
        the run's own packets (egress headers, drop flag and reason,
        entry pipeline) in id order. Otherwise egressed packets are freed.
        """
        if self._ran:
            raise ConfigError(
                "MP5Switch.run was called twice on one instance; tick, "
                "statistics and FIFO state are not reusable — construct a "
                "fresh switch per run"
            )
        self._ran = True
        if record_access_order:
            self.packets = []
            self._stage_logger = [self._log_access_ordered] * self.depth
        else:
            logger = self._log_access
            self._stage_logger = [
                logger if need else None for need in self._stage_needs_log
            ]
        self._pending = deque()
        self._feed_seq = 0
        self._last_feed_key = None
        self._max_ticks = max_ticks
        # Idle-tick compression: while nothing can move (see _quiet),
        # the ticks up to the next arrival, scheduled egress, remap
        # boundary or fault-schedule change are no-ops — jump the tick
        # counter instead of stepping them (generalizes the tail
        # teleport). Semantically invisible, so always on — but engaged
        # only when nothing observes the skipped ticks: the monitor,
        # metrics windows, and the profiler all see every tick, so any
        # of them disables it. Remap boundary ticks always execute —
        # leftover access counters can move indices on an otherwise
        # idle tick.
        self._idle_ok = (
            self._monitor is None
            and self._metrics is None
            and self._profiler is None
        )
        # Zero-latency phantoms go straight into their FIFO unless the
        # schedule can lose or delay them in the channel.
        self._inline_phantoms = self.config.phantom_latency == 0 and (
            self._faults is None or not self._faults.has_phantom_faults
        )

    def feed(self, entries: Iterable[TraceEntry]) -> int:
        """Append a batch of arrivals to the pending queue.

        Entries follow the :meth:`run` trace format and are input: the
        run writes only its own packets, copied once per entry
        (:func:`~repro.mp5.packet.private_packet`) or, for a
        :class:`~repro.mp5.packet.PacketColumns` batch (the service's
        ingest currency), materialised. Each batch is sorted internally,
        but batches must be monotone across calls: the earliest
        ``(arrival, port)`` of a batch may not precede the
        last packet already fed — packet ids are assigned in arrival
        order at feed time (the C1 reference order) and cannot be
        renumbered retroactively — and no arrival may be negative.
        Returns the number of packets added.
        """
        if self._pending is None or self._finished:
            raise ConfigError("feed() requires start() and precedes finish()")
        if isinstance(entries, PacketColumns):
            packets = entries.to_packets()
        else:
            packets = [private_packet(i, e) for i, e in enumerate(entries)]
        if not packets:
            return 0
        packets.sort(key=lambda p: (p.arrival, p.port, p.pkt_id))
        self._check_head((packets[0].arrival, packets[0].port))
        for pkt in packets:
            pkt.pkt_id = self._feed_seq  # arrival-ordered ids (C1 order)
            self._feed_seq += 1
        self._last_feed_key = (packets[-1].arrival, packets[-1].port)
        self.stats.offered += len(packets)
        self.stats.arrival_ticks.extend(p.arrival for p in packets)
        self._pending.extend(packets)
        if self.packets is not None:
            self.packets.extend(packets)
        return len(packets)

    def _check_head(self, head: Tuple[float, int]) -> None:
        """Refuse a sorted batch by its first ``(arrival, port)``, before
        any state changes: every engine's ticks start at 0, and batches
        are monotone."""
        if head[0] < 0:
            raise ConfigError(
                f"feed() arrivals must be >= 0: batch starts at {head}"
            )
        if self._last_feed_key is not None and head < self._last_feed_key:
            raise ConfigError(
                "feed() batches must be monotone in (arrival, port): batch "
                f"starts at {head} but {self._last_feed_key} was already fed"
            )

    def pump(
        self,
        max_steps: Optional[int] = None,
        until_tick: Optional[int] = None,
    ) -> int:
        """Advance the switch while it has work; returns steps executed.

        ``until_tick`` stops before executing that tick (exclusive upper
        bound) — the service gates on :attr:`ingest_watermark` so a tick
        only executes once no future :meth:`feed` can still deliver an
        arrival for it. ``max_steps`` bounds the loop (idle teleports
        count as one step) so a caller can interleave pumping with other
        work. With neither bound, pumps until fully drained.
        """
        if self._pending is None:
            raise ConfigError("pump() requires start()")
        pending = self._pending
        idle_ok = self._idle_ok
        max_ticks = self._max_ticks
        period = self.config.remap_period
        remap_on = self.config.remap_algorithm != "none"
        steps = 0
        while pending or self._live > 0:
            if max_ticks is not None and self.tick >= max_ticks:
                break
            if until_tick is not None and self.tick >= until_tick:
                break
            if max_steps is not None and steps >= max_steps:
                break
            steps += 1
            if (
                idle_ok
                and not (remap_on and self.tick > 0 and self.tick % period == 0)
                and self._quiet()
            ):
                target = self._wake_tick(pending, period if remap_on else None)
                if max_ticks is not None and max_ticks < target:
                    target = max_ticks
                if until_tick is not None and until_tick < target:
                    target = until_tick
                if self.tick < target < NEVER:
                    self.tick = target
                    self._idle_teleports += 1
                    continue
            self._step(pending)
        return steps

    def _quiet(self) -> bool:
        """True when no tick can change anything until the next arrival,
        scheduled egress or fault-schedule change: no phantom is in the
        channel, and every seated packet and every non-empty FIFO is on
        a pipeline under a full stall (with no faults: none is). Stale
        phantoms of dropped packets keep draining on otherwise idle
        ticks, so a non-empty FIFO anywhere else is work."""
        if self._phantom_mail:
            return False
        frozen = self._faults.frozen if self._faults is not None else ()
        for pipe, _stage in self._seated:
            if pipe not in frozen:
                return False
        for fifo, _row, _stage, key in self._fifo_scan:
            if fifo._total and key[0] not in frozen:
                return False
        return True

    def _wake_tick(self, pending, period: Optional[int]) -> int:
        """The first tick after a quiet one at which something happens:
        the next arrival, scheduled egress, remap boundary (``period``,
        None with remapping off) or fault-schedule change."""
        tick = self.tick
        target = NEVER
        if pending:
            arrival = pending[0].arrival
            target = int(arrival) if arrival == int(arrival) else int(arrival) + 1
        if self._egress_mail:
            target = min(target, min(self._egress_mail))
        if period is not None:
            target = min(target, (tick // period + 1) * period)
        if self._faults is not None:
            target = min(target, self._faults.next_change(tick))
        return target

    def finish(self) -> SwitchStats:
        """Close a streaming run: final metrics roll, monitor end-of-run
        checks, and the tick count. Returns the run statistics."""
        if self._pending is None:
            raise ConfigError("finish() requires start()")
        if self._finished:
            raise ConfigError("finish() was already called on this switch")
        self._finished = True
        if self._metrics is not None:
            self._metrics.roll(self.tick)  # close the final partial window
        if self._monitor is not None:
            self._monitor.end_run(
                self.tick, self, drained=not self._pending and self._live == 0
            )
        self.stats.ticks = self.tick
        # The run is over: release what points back at this switch (the
        # bound-method loggers, the monitor that holds ``_switch``).
        self._stage_logger = [None] * self.depth
        self.obs = None
        self._monitor = None
        return self.stats

    @property
    def has_work(self) -> bool:
        """True while arrivals are pending or packets are in flight."""
        return bool(self._pending) or self._live > 0

    @property
    def ingest_watermark(self) -> int:
        """Smallest integer tick ≥ the last fed arrival.

        Ticks strictly below the watermark can never receive an arrival
        from a future (monotone) :meth:`feed` call, so
        ``pump(until_tick=switch.ingest_watermark)`` executes exactly
        the ticks whose inputs are already complete — the property that
        makes a served run byte-identical to an offline one regardless
        of how arrivals were batched.
        """
        if self._last_feed_key is None:
            return 0
        arrival = self._last_feed_key[0]
        return int(arrival) if arrival == int(arrival) else int(arrival) + 1

    def work_available(self, drain: bool) -> bool:
        """True iff a :meth:`pump` call would make progress right now —
        the serving loop's scheduling probe, uniform across engines.
        Mid-stream (``drain=False``) progress additionally requires the
        tick cursor to sit below the ingest watermark, since serving
        pumps with ``until_tick=ingest_watermark``."""
        if self._pending is None or self._finished:
            return False
        if not self.has_work:
            return False
        return drain or self.tick < self.ingest_watermark

    # ------------------------------------------------------------------
    # One tick
    # ------------------------------------------------------------------

    def _step(self, pending: Deque[DataPacket]) -> None:
        cfg = self.config
        tick = self.tick
        occ = self.occ
        stats = self.stats
        obs = self.obs
        prof = self._profiler
        # (0) Fault windows open/close and due emergency remaps run at
        # the tick boundary, before any packet moves — the state the
        # injector sees is the end of the previous tick, identical in
        # both engines.
        faults = self._faults
        if faults is not None:
            faults.begin_tick(tick, self)
            stalled = faults.stalled
            xfail = faults.crossbar_failed
        else:
            stalled = None
            xfail = None
        if prof is not None:
            prof.begin()

        # (1) Phantom deliveries scheduled for this tick.
        mail = self._phantom_mail.pop(tick, None)
        if mail:
            for phantom, fifo_id in mail:
                self._deliver_phantom(phantom, fifo_id)
        if prof is not None:
            prof.lap("phantom_delivery")

        # (2) Injections: spray arrivals across pipelines. Packets enter
        # strictly in arrival order (ties broken by port id, §2.2.1) so
        # that phantom generation order equals arrival order — the
        # property Invariant 1 turns into per-state FIFO order.
        per_pipe = self._per_pipe
        for stages in per_pipe:
            stages.clear()
        injected = 0
        affinity = cfg.spray_policy == "affinity"
        while (
            pending
            and pending[0].arrival <= tick
            and injected < cfg.num_pipelines
        ):
            pipe = (
                self._choose_entry_pipe(pending[0])
                if affinity
                else self._spray_next
            )
            # All stage-0 slots vacate every tick, but guard anyway.
            # A stalled pipeline (repro.faults) admits nothing at its
            # front, exactly like an occupied slot.
            probed = 0
            blocked = stalled is not None and pipe in stalled
            while (
                occ[pipe][0] is not None or blocked
            ) and probed < cfg.num_pipelines:
                pipe = (pipe + 1) % cfg.num_pipelines
                blocked = stalled is not None and pipe in stalled
                probed += 1
            if occ[pipe][0] is not None or blocked:
                break
            self._inject(pending.popleft(), pipe)
            self._spray_next = (pipe + 1) % cfg.num_pipelines
            injected += 1
            if occ[pipe][0] is not None:  # not dropped at injection
                per_pipe[pipe].append(0)
        if prof is not None:
            prof.lap("inject")

        # (3) Movement over the sparse worklist, in place on the
        # occupancy grid. Within a pipeline, higher stages move first so
        # a through-move never lands on a slot that has not vacated yet;
        # pipelines advance in ascending order, which preserves the
        # relative FIFO timestamp order of same-stage packets — the only
        # cross-packet ordering the movement phase can influence.
        for pipe, stage in self._seated:
            per_pipe[pipe].append(stage)  # stages >= 1, ascending
        last = self.depth - 1
        depth = self.depth
        # Packets whose scheduled egress tick arrived. When the tail
        # fast path is active every egress goes through this mail, one
        # per pipeline per tick; they leave in pipeline order — the
        # order the dense movement scan egresses them (a stall can make
        # a later tail entry egress on the same tick as an earlier one).
        ready = self._egress_mail.pop(tick, None)
        if ready:
            if len(ready) > 1:
                ready.sort(key=_mail_pipe)
            for _pipe, pkt in ready:
                self._egress(pkt)
        tail_start = self._tail_start
        egress_mail = self._egress_mail
        fifo_grid = self._fifo_grid
        enable_phantoms = cfg.enable_phantoms
        ecn = cfg.ecn_threshold
        through: List[Tuple[int, int]] = []
        frozen: Optional[List[Tuple[int, int]]] = None
        for pipe in range(cfg.num_pipelines):
            stages = per_pipe[pipe]
            if not stages:
                continue
            if stalled is not None and pipe in stalled:
                # The pipeline's packets freeze in place this tick: no
                # movement, no service. They stay seated (stage >= 1 —
                # injection at a stalled front is blocked above).
                if frozen is None:
                    frozen = []
                for stage in stages:
                    frozen.append((pipe, stage))
                continue
            row = occ[pipe]
            for i in range(len(stages) - 1, -1, -1):
                stage = stages[i]
                pkt = row[stage]
                row[stage] = None
                if stage == last:
                    self._egress(pkt)
                    continue
                nxt = stage + 1
                # Inline access_at_stage: the per-stage table always
                # exists once a packet is injected, and this lookup runs
                # once per in-flight packet per tick.
                access = pkt._by_stage.get(nxt)
                if access is None or access.completed:
                    if nxt >= tail_start:
                        # Instruction-free stateless tail: the packet
                        # egresses after depth - nxt more moves, and
                        # nothing but a stall can touch it in between.
                        when = (
                            tick + depth - nxt
                            if faults is None
                            else faults.egress_tick(tick, pipe, depth - nxt)
                        )
                        lst = egress_mail.get(when)
                        if lst is None:
                            egress_mail[when] = [(pipe, pkt)]
                        else:
                            lst.append((pipe, pkt))
                        continue
                    row[nxt] = pkt
                    through.append((pipe, nxt))
                    continue
                dest = access.pipeline
                if xfail is not None and dest in xfail:
                    # The crossbar port into the destination pipeline is
                    # down (D3 failure): the steer never happens and the
                    # packet is lost — its phantom is expired by _drop.
                    self._drop(pkt, "crossbar_down")
                    continue
                if dest != pipe:
                    stats.steering_moves += 1
                if obs is not None:
                    obs.steer(tick, pkt.pkt_id, pipe, dest, nxt)
                fifo = fifo_grid[dest][nxt]
                if enable_phantoms:
                    if (
                        ecn is not None
                        and not pkt.ecn_marked
                        and fifo.data_occupancy() >= ecn
                    ):
                        # §3.4: mark packets once the queue crosses the
                        # threshold, giving senders early backpressure.
                        pkt.ecn_marked = True
                        stats.ecn_marked += 1
                        if obs is not None:
                            obs.ecn_mark(tick, pkt.pkt_id, dest, nxt)
                    if fifo.insert(pkt, tick):
                        if obs is not None:
                            obs.phantom_match(tick, pkt.pkt_id, dest, nxt)
                    else:
                        self._drop(pkt, "no_phantom")
                else:
                    if not fifo.push(pkt, pipe, tick):
                        self._drop(pkt, "fifo_full")

        if prof is not None:
            prof.lap("move")

        # (4) Pops: fill free slots of stateful stages; through packets
        # keep priority.
        popped: List[Tuple[int, int]] = []
        for fifo, row, stage, key in self._fifo_scan:
            if stalled is not None and key[0] in stalled:
                continue  # a stalled pipeline's stages do not pop
            if row[stage] is not None or not fifo._total:
                continue
            pkt = fifo.pop()
            if pkt is not None:
                row[stage] = pkt
                popped.append(key)
                if obs is not None:
                    obs.fifo_pop(tick, pkt.pkt_id, key[0], key[1])
            elif obs is not None and fifo._data:
                # Data is queued but a phantom at the logical head blocks
                # the whole group (D4 head-of-line blocking).
                obs.fifo_block(tick, key[0], key[1])
        if prof is not None:
            prof.lap("pop")

        # (5) Service every newly occupied slot (stage 0 was serviced at
        # injection time — it runs the resolution logic), in (pipeline,
        # stage) order like the dense reference engine: within one tick
        # the service order is observable through the recorded state
        # access order.
        # Popped packets always need service (their access completes
        # here); through packets only at stages that execute instructions
        # — at instruction-free stages their service is a provable no-op
        # (no pending access by movement construction), so skipping it
        # leaves the serviced order and all observable effects unchanged.
        live = self._stage_live
        need = [entry for entry in through if live[entry[1]]]
        need.extend(popped)
        need.sort()
        for pipe, stage in need:
            self._service(occ[pipe][stage], stage, pipe)
        through.extend(popped)
        if frozen is not None:
            # Frozen packets were neither moved nor re-serviced; they
            # re-enter the worklist where they stand.
            through.extend(frozen)
        through.sort()
        self._seated = through
        if prof is not None:
            prof.lap("service")

        # (6) Background dynamic sharding.
        if (
            cfg.remap_algorithm != "none"
            and tick
            and tick % cfg.remap_period == 0
        ):
            moved = self.sharder.end_epoch(cfg.remap_algorithm)
            stats.remap_moves += moved
            if obs is not None:
                obs.remap(tick, moved)
        if prof is not None:
            prof.lap("remap")

        # Queue-depth telemetry (data packets only, matching §4.4's
        # "maximum number of packets queued in any pipeline stage"),
        # sampled at the tick boundary from the FIFOs' incremental
        # counters — no per-slot sweep.
        max_depth = stats.max_queue_depth
        peaks = stats.per_stage_peak_queue
        for fifo, _row, _stage, key in self._fifo_scan:
            queued = fifo._data
            if queued:
                if queued > max_depth:
                    max_depth = queued
                if queued > peaks.get(key, 0):
                    peaks[key] = queued
        stats.max_queue_depth = max_depth

        metrics = self._metrics
        if metrics is not None:
            metrics.maybe_roll(tick)
        monitor = self._monitor
        if monitor is not None:
            monitor.end_tick(tick, self)
        if prof is not None:
            prof.lap("telemetry")
            prof.end_tick()

        self.tick += 1

    # ------------------------------------------------------------------
    # Packet lifecycle
    # ------------------------------------------------------------------

    def _run_stage0(self, headers, registers, env) -> None:
        """Execute the stage-0 (address resolution) program against the
        given state; operand values land in ``env`` for the precompiled
        readers in ``_resolution_plans``."""
        fn = self._stage_fns[0]
        if fn is not None:
            fn(headers, registers, env, None)

    def _choose_entry_pipe(self, pkt: DataPacket) -> int:
        """Entry pipeline per the spray policy (§3.1 D1 or the affinity
        extension). Affinity peeks at the resolution result: the ingress
        can evaluate the same stateless logic before the demux."""
        if self.config.spray_policy != "affinity":
            return self._spray_next
        env = dict(pkt.env)
        self._run_stage0(dict(pkt.headers), self.registers, env)
        for (
            _stage,
            base,
            guard_read,
            index_read,
            size,
            _conservative,
            _label,
            multi,
        ) in self._resolution_plans:
            if multi:
                index = None
            else:
                if guard_read is not None and not guard_read(env):
                    continue
                index = index_read(env) % size if index_read is not None else None
            return self.sharder.lookup(base, index)
        return self._spray_next

    def _inject(self, pkt: DataPacket, pipe: int) -> None:
        """Address-resolution stage: plan accesses, emit phantoms."""
        cfg = self.config
        pkt.entry_pipeline = pipe
        pkt.entry_tick = self.tick
        self.occ[pipe][0] = pkt
        self._live += 1

        env = pkt.env
        self._run_stage0(pkt.headers, self.registers, env)

        accesses: List[StateAccess] = []
        note_resolved = self.sharder.note_resolved
        add_access = accesses.append
        simple = self._simple_plans
        if simple is not None:
            for stage, base, index_read, size, conservative in simple:
                index = index_read(env) % size
                dest = note_resolved(base, index)
                add_access(StateAccess(base, stage, dest, index, conservative))
        else:
            for (
                stage,
                base,
                guard_read,
                index_read,
                size,
                conservative,
                label,
                multi,
            ) in self._resolution_plans:
                if multi:
                    index = None
                else:
                    if guard_read is not None and not guard_read(env):
                        continue  # resolved: this packet never touches it
                    index = (
                        index_read(env) % size if index_read is not None else None
                    )
                dest = note_resolved(base, index)
                add_access(StateAccess(label, stage, dest, index, conservative))
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
        pkt.index_accesses()
        obs = self.obs
        if obs is not None:
            obs.ingress(self.tick, pkt.pkt_id, pipe, pkt.port, pkt.flow_id)

        if cfg.enable_phantoms:
            tick = self.tick
            latency = cfg.phantom_latency
            stats = self.stats
            if self._inline_phantoms:
                # Immediate delivery through a channel no fault touches
                # (the common case), _deliver_phantom inlined.
                fifo_grid = self._fifo_grid
                for access in accesses:
                    phantom = PhantomPacket(
                        pkt.pkt_id,
                        access.array,
                        access.index,
                        access.pipeline,
                        access.stage,
                        tick,
                    )
                    stats.phantoms_generated += 1
                    if obs is not None:
                        obs.phantom_emit(
                            tick,
                            pkt.pkt_id,
                            access.pipeline,
                            access.stage,
                            access.array,
                            access.index,
                        )
                    fifo = fifo_grid[access.pipeline][access.stage]
                    if not fifo.push(phantom, pipe, tick):
                        stats.drops_fifo_full += 1
                        self._drop(pkt, "phantom_fifo_full")
                        self.occ[pipe][0] = None
                        return
                return
            faults = self._faults
            for access in accesses:
                phantom = PhantomPacket(
                    pkt.pkt_id,
                    access.array,
                    access.index,
                    access.pipeline,
                    access.stage,
                    tick,
                )
                stats.phantoms_generated += 1
                if obs is not None:
                    obs.phantom_emit(
                        tick,
                        pkt.pkt_id,
                        access.pipeline,
                        access.stage,
                        access.array,
                        access.index,
                    )
                delay = latency
                if faults is not None:
                    lost, extra = faults.phantom_fault(
                        pkt.pkt_id, access.pipeline, access.stage
                    )
                    if lost:
                        # Phantom-channel loss (§3.5.1): the queue had
                        # room, the channel lost the phantom, so the data
                        # packet will find no placeholder and drop.
                        stats.phantoms_lost += 1
                        if obs is not None:
                            obs.phantom_loss(
                                tick,
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
                    self._phantom_mail.setdefault(tick + delay, []).append(
                        (phantom, pipe)
                    )

    def _deliver_phantom(self, phantom: PhantomPacket, fifo_id: int) -> bool:
        faults = self._faults
        if faults is not None and faults.is_cancelled(phantom.pkt_id):
            # The data packet already dropped while this phantom sat
            # delayed in the channel; the drop-time expire_phantom missed
            # it (it was not queued yet), so discard it here — pushing it
            # would block the FIFO head forever.
            return True
        fifo = self._fifo_grid[phantom.pipeline][phantom.stage]
        if (
            faults is not None
            and phantom.created_tick < self.tick
            and fifo.stale_phantom(phantom.pkt_id)
        ):
            # Fault-delayed delivery behind a younger packet's phantom:
            # queueing it now would invert the per-state service order
            # among survivors (C1), so the channel counts it lost — the
            # data packet recovers via the no_phantom drop path.
            self.stats.phantoms_lost += 1
            if self.obs is not None:
                self.obs.phantom_loss(
                    self.tick,
                    phantom.pkt_id,
                    phantom.pipeline,
                    phantom.stage,
                    phantom.array,
                )
            return True
        ok = fifo.push(phantom, fifo_id, self.tick)
        if not ok:
            self.stats.drops_fifo_full += 1
        return ok

    # ------------------------------------------------------------------
    # Service-time access logging (bound methods, not per-packet
    # closures: the engine services every live packet every tick, so the
    # logger must be allocation-free).
    # ------------------------------------------------------------------

    def _log_access(self, reg, idx, kind) -> None:
        self._accessed_arrays.append(reg)

    def _log_access_ordered(self, reg, idx, kind) -> None:
        self._accessed_arrays.append(reg)
        order = self.stats.access_order.setdefault((reg, idx), [])
        pid = self._service_pkt_id
        if not order or order[-1] != pid:
            order.append(pid)

    def _service(self, pkt: DataPacket, stage: int, pipe: int = -1) -> None:
        """Execute stage ``stage`` for ``pkt`` (it occupies the slot now)."""
        instrs = self._stage_instrs[stage]
        if instrs:
            if self.obs is not None:
                self.obs.service(self.tick, pkt.pkt_id, pipe, stage)
            logger = self._stage_logger[stage]
            if logger is not None:
                self._accessed_arrays.clear()
                self._service_pkt_id = pkt.pkt_id
            fn = self._stage_fns[stage]
            if fn is not None:
                fn(pkt.headers, self.registers, pkt.env, logger)

        # Inline access_at_stage; the linear fallback only triggers for
        # packets whose access table was never frozen (reference engine).
        table = pkt._by_stage
        if table is not None:
            access = table.get(stage)
            if access is not None and access.completed:
                access = None
        else:
            access = pkt.access_at_stage(stage)
        if access is not None:
            access.completed = True
            array = access.array
            if array != FLOW_ORDER_ARRAY and "+" not in array:
                self.sharder.note_completed(array, access.index)
                # A conservative access always has the stage logger wired
                # up (see _stage_needs_log), so the scratch list reflects
                # exactly this service call's register accesses.
                if access.conservative and (
                    not instrs or array not in self._accessed_arrays
                ):
                    # The preemptively generated phantom was for a branch
                    # not taken: one wasted slot (§3.3).
                    self.stats.wasted_slots += 1

    def _egress(self, pkt: DataPacket) -> None:
        pkt.egress_tick = self.tick
        self._live -= 1
        self.stats.egressed += 1
        self.stats.egress_ticks.append(self.tick)
        latency = self.tick - pkt.arrival
        self.stats.latencies.append(latency)
        if self.obs is not None:
            self.obs.egress(self.tick, pkt.pkt_id, latency)
        if self._metrics_latency is not None:
            self._metrics_latency.observe(latency)
        if pkt.flow_id is not None:
            self.stats.flow_egress.setdefault(pkt.flow_id, []).append(pkt.pkt_id)

    def _drop(self, pkt: DataPacket, reason: str) -> None:
        pkt.dropped = True
        pkt.drop_reason = reason
        self._live -= 1
        self.stats.dropped += 1
        if self.obs is not None:
            self.obs.drop(self.tick, pkt.pkt_id, reason)
        if reason == "no_phantom":
            self.stats.drops_no_phantom += 1
        elif reason == "crossbar_down":
            self.stats.drops_crossbar += 1
        reasons = self.stats.drops_by_reason
        reasons[reason] = reasons.get(reason, 0) + 1
        if self._faults is not None:
            self._faults.note_dropped(pkt.pkt_id)
        # Retire this packet's outstanding phantoms so they stop blocking
        # their FIFOs, and release the in-flight counters.
        for access in pkt.accesses:
            if access.completed:
                continue
            access.completed = True
            fifo = self.fifos.get((access.pipeline, access.stage))
            if fifo is not None:
                fifo.expire_phantom(pkt.pkt_id)
            if access.array != FLOW_ORDER_ARRAY and "+" not in access.array:
                self.sharder.note_completed(access.array, access.index)
