"""Structure-of-arrays batch engine: the third MP5 engine.

:mod:`repro.mp5.switch` advances one Python packet at a time;
this engine advances whole *columns*. It exploits three structural
facts of the fault-free MP5 tick the differential suite already proves:

* **D1 homogeneity** — every pipeline runs the identical program, so a
  stage's stateless ALU work is data-parallel across packets and runs
  as one precompiled NumPy kernel (:mod:`repro.compiler.vjit`).
* **C1 / Invariant 1** — with unbounded FIFOs and phantom generation
  order equal to arrival order, each per-(pipeline, stage) FIFO group
  pops its members strictly in packet-id order, one per tick:
  ``pop[j] = max(pop[j-1] + 1, insert[j])`` — a vectorizable running
  maximum. Inter-stage transit times are deterministic (one stage per
  tick), so the whole timeline is computed per *epoch* (the span
  between two remap boundaries) without simulating individual ticks.
* **Packet Transactions' observation** — only the stateful atom
  updates must serialize. They run as a batched inner loop grouped by
  ``(array, index)``: rows touching distinct indices execute together
  in one kernel call (a *wave*); same-index rows execute in successive
  waves in exact arrival order.

The engine drives the *real* :class:`~repro.mp5.sharding.ShardingRuntime`
with batched counter updates, so remap decisions (heuristic and
optimal) are bit-identical to the scalar engines. Idle stretches never
cost anything — the epoch representation is inherently tick-compressed,
but remap boundaries inside idle stretches still execute (stale access
counters can still move indices), exactly like the idle-tick
compression of the scalar engines.

Observability (recorder, metrics registry, profiler, monitor) rides the
batch path: attached sinks are fed *after* Phase B from the schedule's
tick columns (:mod:`repro.obs.reconstruct`) — a recorder gets the
scalar engines' event stream as one column block per event type; a
registry and a monitor get their windows, histograms
and detector steps at the roll boundaries, and the monitor's invariants
run as whole-array predicates over every executed event tick. Same
trace, same alert stream, same metrics series, and
``results.json`` stays byte-identical with sinks on or off. With no
sink attached the engine skips it all, so the closed-form speed is
untouched.

Exactness over generality: runs the batch reduction cannot represent
(bounded FIFOs, ECN, starvation preemption, ideal queues, affinity
spray, resolvable access guards, write-only register arrays, armed
faults, access-order recording) get the fast engine from
:func:`repro.mp5.engines.build_switch`, before the first packet, under
one rule: every fallback prints ``vector engine: <reason>; falling
back to the fast engine`` once per warning scope
(:func:`reset_fallback_warnings`) — so ``--engine vector`` is always
safe, and never silently slow. Construction is the only place this
class raises :class:`VectorUnsupported`. Supported runs produce
:class:`~repro.mp5.stats.SwitchStats` and final registers equal to both
scalar engines, byte-for-byte once serialized.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional

import numpy as np

from ..compiler.lower import cross_stage_temps
from ..compiler.tac import Temp
from ..compiler.vjit import compile_scan_stage, compile_vector_stage
from ..errors import ConfigError, ReproError
from .config import MP5Config
from .epochs import (
    _FAR,
    EpochStreamer,
    _grown,
    execute_epoch_service,
)
from .packet import PacketColumns, private_packet
from .stats import SwitchStats
from .switch import FLOW_ORDER_ARRAY, MP5Switch


class VectorUnsupported(ReproError):
    """The program or configuration needs the scalar engines."""


# Fallback warnings already emitted, for deduplication: a sweep that
# falls back does so identically in every cell, so the notice prints
# once per run (the CLI resets this at entry), not once per cell.
_warned_fallbacks: set = set()
# While a sweep worker runs a task, its notices are collected here and
# travel back with the result; the parent prints them, so the scope is
# the parent's at any job count (repro.harness.parallel).
_collected: Optional[List[str]] = None


def reset_fallback_warnings() -> None:
    """Start a fresh warning scope (CLI entry, new reproduction run)."""
    _warned_fallbacks.clear()


def print_fallback_notice(message: str) -> None:
    """Print ``message`` to stderr unless this scope already did."""
    if message not in _warned_fallbacks:
        _warned_fallbacks.add(message)
        print(message, file=sys.stderr)


@contextmanager
def collect_fallback_notices() -> Iterator[List[str]]:
    """Collect the notices raised inside the block, each once, instead
    of printing them."""
    global _collected
    saved, _collected = _collected, []
    try:
        yield _collected
    finally:
        _collected = saved


def _warn_fallback(reason) -> None:
    """The one fallback notice: ``reason`` (a string or the
    :class:`VectorUnsupported` raised), printed once per scope."""
    message = f"vector engine: {reason}; falling back to the fast engine"
    if _collected is None:
        print_fallback_notice(message)
    elif message not in _collected:
        _collected.append(message)


def config_fallback_reason(cfg: MP5Config) -> Optional[str]:
    """Why a config needs the fast engine; None when vector-capable."""
    if cfg.ideal_queues:
        return "ideal_queues"
    if not cfg.enable_phantoms:
        return "enable_phantoms=False"
    if cfg.fifo_capacity is not None:
        return "bounded fifo_capacity"
    if cfg.ecn_threshold is not None:
        return "ecn_threshold"
    if cfg.starvation_threshold is not None:
        return "starvation_threshold"
    if cfg.record_crossbar:
        return "record_crossbar"
    if cfg.spray_policy != "roundrobin":
        return f"spray_policy={cfg.spray_policy!r}"
    return None


class _VPlan:
    """One per-packet state access, in stage order."""

    __slots__ = (
        "stage",
        "base",
        "label",
        "size",
        "conservative",
        "multi",
        "has_index",
        "index_operand",
        "category",  # 'wave' | 'serial' | 'none'
        "is_flow",
        "scan",  # ScanKernel when the stage is scan-shaped, else None
    )

    def __init__(self, **kw):
        for key, value in kw.items():
            setattr(self, key, value)


class VectorSwitch(MP5Switch):
    """Batch engine. Construction raises :class:`VectorUnsupported` for
    config knobs (:func:`config_fallback_reason`) and program shapes
    the epoch reduction cannot represent."""

    engine = "vector"

    def __init__(self, program, config: Optional[MP5Config] = None):
        # Before the base constructor: a fallback then builds one
        # switch, not two.
        reason = config_fallback_reason(config or MP5Config())
        if reason is not None:
            raise VectorUnsupported(reason)
        super().__init__(program, config)
        self._streamer: Optional[EpochStreamer] = None
        self._build_vector_plan()

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------

    def _live_temps(self):
        """The temps a kernel must publish to ``E`` — those a later
        stage loads and the plans' index operands (Phase A's injection
        reads them); the rest get no store and no column. A function of
        the program, so only kernel-cache misses compute it."""
        return cross_stage_temps(
            self._stage_instrs,
            [p.index_operand for _, grp in self._plans_by_stage for p in grp],
        )

    def _scan_kernel(self, stage: int, base: str, with_index: bool):
        """Stage ``stage`` as a scan over ``base``
        (:func:`~repro.compiler.vjit.compile_scan_stage`; None unless
        scan-shaped), cached on the program like the other kernels."""
        cache = self.program.kernels
        key = ("scan", stage, base, with_index)
        if key not in cache:
            cache[key] = compile_scan_stage(
                self._stage_instrs[stage],
                base,
                f"s{stage}",
                self._live_temps(),
                with_index,
            )
        return cache[key]

    def _build_vector_plan(self) -> None:
        depth = self.depth
        key = ("vector", depth)
        if key not in self.program.kernels:
            live = self._live_temps()
            self.program.kernels[key] = [
                compile_vector_stage(instrs, f"s{i}", live)
                for i, instrs in enumerate(self._stage_instrs)
            ]
        self._vkernels = self.program.kernels[key]
        kern0 = self._vkernels[0]
        if kern0 is not None and kern0.stateful:
            raise VectorUnsupported("stateful resolution stage")

        by_stage = dict(self._plans_by_stage)
        vplans: List[_VPlan] = []
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
            if guard_read is not None:
                # A resolvable guard lets packets skip the stateful
                # stage entirely (through-transit + Invariant-2 slot
                # blocking) — the scalar engines model that; we don't.
                raise VectorUnsupported("resolvable access guard")
            group = by_stage[stage]
            kern = self._vkernels[stage]
            names_at = {p.name for p in group}
            for instr in kern.stateful if kern else ():
                if instr.reg not in names_at:
                    raise VectorUnsupported(
                        f"register {instr.reg!r} accessed outside its plan stage"
                    )
            has_index = index_read is not None
            plan0 = group[0]
            category = "none"
            if kern is not None:
                category = "serial"
                if has_index and not multi:
                    in_stage_defs = {
                        i.dest
                        for i in self._stage_instrs[stage]
                        if i.dest is not None
                    }
                    op = plan0.index_operand
                    uniform = isinstance(op, Temp) and op not in in_stage_defs
                    if uniform and all(
                        instr.reg == base and instr.args[0] == op
                        for instr in kern.stateful
                    ):
                        category = "wave"
            scan = None
            if category != "none" and not multi:
                scan = self._scan_kernel(stage, base, category != "wave")
            vplans.append(
                _VPlan(
                    stage=stage,
                    base=base,
                    label=label,
                    size=size,
                    conservative=conservative,
                    multi=multi,
                    has_index=has_index,
                    index_operand=plan0.index_operand if has_index else None,
                    category=category,
                    is_flow=False,
                    scan=scan,
                )
            )
        # Stateful instructions at a stage with no plan: a write-only
        # array — it has no phantom/FIFO plan, so its service timing has
        # no batched representation.
        plan_stages = {p.stage for p in vplans}
        for stage in range(depth):
            kern = self._vkernels[stage]
            if kern is not None and kern.stateful and stage not in plan_stages:
                raise VectorUnsupported("write-only register array")
        if self._flow_order_stage is not None:
            vplans.append(
                _VPlan(
                    stage=self._flow_order_stage,
                    base=FLOW_ORDER_ARRAY,
                    label=FLOW_ORDER_ARRAY,
                    size=self.config.flow_order_size,
                    conservative=False,
                    multi=False,
                    has_index=True,
                    index_operand=None,
                    category="none",
                    is_flow=True,
                    scan=None,
                )
            )
            plan_stages.add(self._flow_order_stage)
        self._vplans = vplans

        # Live stateless stages a packet transits between accesses; the
        # fast engine services through packets there, so we must too.
        live = [
            u
            for u in range(1, depth)
            if self._vkernels[u] is not None and u not in plan_stages
        ]
        stages = [p.stage for p in vplans]
        if vplans:
            self._transit_after_inject = [u for u in live if u < stages[0]]
            self._transit_after = [
                [
                    u
                    for u in live
                    if stages[pi] < u
                    and (pi + 1 >= len(stages) or u < stages[pi + 1])
                ]
                for pi in range(len(stages))
            ]
        else:
            self._transit_after_inject = live
            self._transit_after = []

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def attach_observability(
        self, recorder=None, metrics=None, profiler=None, monitor=None
    ) -> None:
        """Attach observability sinks — deferred, not hooked.

        The batch engine has no per-tick hot path to instrument, so the
        sinks are only *stored* here; after Phase B completes,
        :mod:`repro.obs.reconstruct` feeds them from the schedule's tick
        columns. A recorder gets the event stream as column blocks. A
        registry gets the scalar sampler set, rolled at its window
        boundaries. A monitor gets its detector windows and — instead
        of per-tick walks over FIFOs and shard maps this engine never
        populates — array predicates over every executed event tick:
        ``c1_order`` (ids ascend in pop order per state index),
        ``phantom_pairing`` (emit <= match <= pop, every egress fully
        matched), ``fifo_sanity`` (per lane, matches cover pops; one pop
        per tick), ``shard_exclusivity`` (an index changes pipeline
        only across a remap boundary it was idle at) and
        ``conservation`` (in-flight >= 0 at each boundary; the engine's
        counters against the columns at end of run).
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
            self._metrics = metrics
        if monitor is not None:
            self._monitor = monitor

    def attach_faults(self, schedule) -> None:
        """Only an empty schedule (a no-op): ``build_switch`` gives an
        armed one to the fast engine."""
        if schedule is not None and not schedule.empty:
            raise ConfigError(
                "the vector engine runs no fault schedule; build the "
                "switch with repro.mp5.build_switch"
            )
        super().attach_faults(schedule)

    def _replay_sinks(self, schedule, drained: bool) -> None:
        """Feed the attached sinks the run they never saw live: the
        recorder one column block per event type, the registry and the
        monitor window by window from the schedule's columns. All sink
        work of a run happens inside this one ``trace_reconstruct``
        span."""
        from ..obs.reconstruct import feed_recorder, feed_window_sinks

        t0 = perf_counter()
        sinks = (
            ("recorder", self._recorder),
            ("metrics", self._metrics),
            ("monitor", self._monitor),
        )
        kinds = [kind for kind, sink in sinks if sink is not None]
        fed = {}
        if self._recorder is not None:
            feed_recorder(self._recorder, self, schedule)
        if self._metrics is not None or self._monitor is not None:
            fed = feed_window_sinks(
                self, schedule, self._wmasks, drained,
                self._metrics, self._monitor,
            )
        prof = self._profiler
        if prof is not None:
            prof.record_span("trace_reconstruct", perf_counter() - t0)
            prof.record_sinks(kinds, **fed)

    @property
    def _sinks_attached(self) -> bool:
        return (
            self._recorder is not None
            or self._metrics is not None
            or self._monitor is not None
        )

    # ------------------------------------------------------------------
    # Streaming run loop: start / feed / pump / finish
    # ------------------------------------------------------------------

    def start(
        self,
        max_ticks: Optional[int] = None,
        record_access_order: bool = False,
    ) -> None:
        """Begin a streaming run (the scalar engines' contract).

        After ``start()`` the switch accepts arrival batches through
        :meth:`feed`; :meth:`pump` services every epoch the ingest
        watermark has closed, and :meth:`finish` drains the rest and
        returns the stats. The served results are byte-identical to
        :meth:`run` on the concatenated trace at any feed chunking,
        with buffered service work bounded by the largest epoch — but
        only when remapping is on: with ``remap_algorithm='none'``
        there are no epoch boundaries, so the sweep queues its single
        epoch at the drain and everything defers to :meth:`finish`.
        ``record_access_order`` is refused: ``build_switch`` gives such
        a run to the fast engine.
        """
        if record_access_order:
            raise ConfigError(
                "the vector engine keeps no access order; build the "
                "switch with repro.mp5.build_switch"
            )
        if self._ran:
            raise ConfigError(
                "MP5Switch.run was called twice on one instance; tick, "
                "statistics and FIFO state are not reusable — construct a "
                "fresh switch per run"
            )
        self._ran = True
        cfg = self.config
        fields = set()
        temps = set()
        for kern in self._vkernels:
            if kern is not None:
                fields |= kern.fields_read | kern.fields_written
                temps.update(kern.temps_in)
                temps.update(kern.temps_out)
        if self._flow_order_stage is not None:
            fields.add(cfg.flow_order_field)
        self._field_list = sorted(fields)
        self._temp_list = sorted(temps)
        # Structure-of-arrays packet state. The dict objects are shared
        # with the streamer for the whole run; feed() swaps grown
        # columns into them in place.
        self._H: Dict[str, np.ndarray] = {
            f: np.empty(0, dtype=np.int64) for f in self._field_list
        }
        self._E: Dict[str, np.ndarray] = {
            t: np.empty(0, dtype=np.int64) for t in self._temp_list
        }
        self._R = {
            name: np.asarray(values, dtype=np.int64)
            for name, values in self.registers.items()
        }
        # The per-packet facts kept past feed(), as columns by row: port
        # and flow (arrivals are ``stats.arrival_ticks``).
        self._port = np.empty(0, dtype=np.int64)
        self._flow: List = []
        self._max_ticks = max_ticks
        self._last_feed_key = None
        self._streamer = EpochStreamer(
            self, self._H, self._E, self._R, max_ticks
        )
        # Per-row wasted-slot attribution, only when a sink will replay
        # the stream: plans whose conservative access can waste a slot
        # get a row mask for Phase B to flag them in.
        self._wmasks = None
        if self._sinks_attached:
            self._wmasks = [
                np.zeros(0, dtype=bool)
                if plan.conservative
                and not plan.multi
                and plan.category in ("wave", "serial")
                else None
                for plan in self._vplans
            ]
        self._swasted = 0
        self._epochs_serviced = 0
        self._peak_buffered = 0
        self._drain_pumped = False
        self._pa_time = 0.0
        self._pb_time = 0.0

    def feed(self, entries) -> int:
        """Append a batch of arrivals (the scalar engines' contract:
        per-batch sort, monotone across batches, arrival-ordered packet
        ids). ``entries`` is a :class:`~repro.mp5.packet.PacketColumns`
        batch, or packets / ``(arrival, port, headers)`` tuples that one
        :meth:`PacketColumns.from_packets` gather turns into one. The
        header columns extend the SoA arrays and Phase A's injection
        recurrence extends incrementally; no row is written back (so
        packets are gathered as they are) and no per-packet object is
        kept."""
        if self._streamer is None or self._finished:
            raise ConfigError("feed() requires start() and precedes finish()")
        if self._drain_pumped:
            raise ConfigError(
                "feed() after a draining pump(): the vector engine "
                "commits remap decisions at drain — pump with "
                "until_tick=ingest_watermark while feeding"
            )
        cols = entries
        if not isinstance(cols, PacketColumns):
            packets = entries if isinstance(entries, list) else list(entries)
            try:
                cols = PacketColumns.from_packets(packets, self._field_list)
            except AttributeError:  # tuples: only these need packets
                packets = [private_packet(i, e) for i, e in enumerate(packets)]
                cols = PacketColumns.from_packets(packets, self._field_list)
        n = len(cols)
        if n == 0:
            return 0
        # Stable (arrival, port, position) sort — the scalar engines'
        # (arrival, port, pkt_id) list.sort as one lexsort. float64
        # arrivals may carry sub-tick fractions and compare exactly like
        # the Python numbers they came from.
        order = np.lexsort((cols.port, cols.arrival))
        if (order[1:] < order[:-1]).any():
            cols = cols.take(order)
        arr = cols.arrival
        ticks = cols.ticks()
        self._check_head((ticks[0], int(cols.port[0])))
        self._last_feed_key = (ticks[-1], int(cols.port[-1]))
        stats = self.stats
        stats.offered += n
        stats.arrival_ticks.extend(ticks)

        sr = self._streamer
        lo = sr.n_fed  # rows are packet ids: arrival order (C1 order)
        hi = lo + n
        self._port = _grown(self._port, hi)
        self._port[lo:hi] = cols.port
        for f in self._field_list:
            # A field the batch does not carry reads 0 in every row.
            col = _grown(self._H[f], hi)
            col[lo:hi] = cols.headers.get(f, 0)
            self._H[f] = col
        flow = cols.flow
        if self._flow_order_stage is not None and None in flow:
            # The scalar engines name an unlabelled packet's flow by its
            # flow-order key; only injected rows' ids are ever read.
            keys = self._H[self.config.flow_order_field][lo:hi].tolist()
            flow = [k if f is None else f for f, k in zip(flow, keys)]
        self._flow.extend(flow)
        for t in self._temp_list:
            self._E[t] = _grown(self._E[t], hi, fill=0)
        if self._wmasks is not None:
            for pi, m in enumerate(self._wmasks):
                if m is not None:
                    self._wmasks[pi] = _grown(m, hi, fill=False)
        t0 = perf_counter()
        sr.ingest(arr)
        self._pa_time += perf_counter() - t0
        buffered = sr.buffered
        if buffered > self._peak_buffered:
            self._peak_buffered = buffered
        return n

    def pump(
        self,
        max_steps: Optional[int] = None,
        until_tick: Optional[int] = None,
    ) -> int:
        """Service every epoch whose content is complete; returns the
        number of epochs serviced (the streaming unit of progress —
        the scalar engines count ticks here).

        ``until_tick`` is the caller's ingest watermark: an epoch cut
        executes only once ``cut < until_tick`` proves no future feed
        can deliver an arrival for it. ``until_tick=None`` is the
        draining pump — it asserts no further :meth:`feed` calls and
        runs the sweep to completion (mirroring the scalar engines,
        where an unbounded pump drains all pending work)."""
        if self._streamer is None:
            raise ConfigError("pump() requires start()")
        final = until_tick is None
        if final:
            self._drain_pumped = True
        sr = self._streamer
        closed = 0
        t0 = perf_counter()
        while (max_steps is None or closed < max_steps) and sr.advance_epoch(
            until_tick, final
        ):
            closed += 1
        self._pa_time += perf_counter() - t0
        if closed:
            self._service(closed)
        return closed

    def _service(self, epochs: int) -> None:
        """Phase B for the ``epochs`` one pump closed: drain what Phase A
        queued, as one sweep."""
        sr = self._streamer
        chunks, sr.unserviced = sr.unserviced, [[] for _ in sr.unserviced]
        t0 = perf_counter()
        self._swasted += execute_epoch_service(
            self,
            sr,
            chunks,
            self._H,
            self._E,
            self._R,
            profiler=self._profiler,
            wasted_out=self._wmasks,
        )
        self._pb_time += perf_counter() - t0
        self._epochs_serviced += epochs
        # Live progress for dashboards; finish() recomputes both
        # exactly (these match the scalar engines' live counters).
        self.stats.egressed = int(sr.egr_assigned)
        through = sr.executed_through
        if through >= _FAR:
            through = sr.last_egress
        if through >= 0:
            self.tick = int(through) + 1

    def finish(self) -> SwitchStats:
        """Drain the sweep — the same :meth:`pump` the daemon drives,
        with no watermark, so every epoch not yet serviced runs through
        :meth:`_service` — and reconstruct the statistics. :meth:`run`
        is exactly ``start(); feed(); finish()``; with remapping off the
        drain's one sweep is the whole run. A run that never steps (no
        packets, or ``max_ticks <= 0``) takes the same path."""
        if self._streamer is None:
            raise ConfigError("finish() requires start()")
        if self._finished:
            raise ConfigError("finish() was already called on this switch")
        self._finished = True
        self.pump()
        schedule = self._streamer.finalize()
        self._last_schedule = schedule  # test/debug hook: the run's DAG
        prof = self._profiler
        if prof is not None:
            prof.record_span("phase_a", self._pa_time)
            prof.record_span("phase_b", self._pb_time)
        self._finalize_stats(schedule)
        return self.stats

    @property
    def has_work(self) -> bool:
        """True while fed packets are awaiting service (the scalar
        engines' pending-or-in-flight test)."""
        sr = self._streamer
        if sr is None or self._finished:
            return False
        return sr.buffered > 0 and not sr.done

    def work_available(self, drain: bool) -> bool:
        """True iff :meth:`pump` would make progress — epoch-granular,
        so a pump is only worth calling once the watermark closes a
        cut (or at drain, when the rest of the sweep runs). Matches the
        scalar probe: no fed-but-unserviced packets, no work."""
        if not self.has_work:
            return False
        sr = self._streamer
        if drain:
            return True
        return sr.can_advance(self.ingest_watermark)

    def stream_stats(self) -> Dict[str, int]:
        """Streaming gauges: current and peak buffered-packet counts
        (fed but no egress assigned — the memory-bound contract's
        observable) and epochs serviced incrementally."""
        sr = self._streamer
        return {
            "buffered": int(sr.buffered) if sr is not None else 0,
            "peak_buffered": int(self._peak_buffered),
            "epochs_serviced": int(self._epochs_serviced),
        }

    # ------------------------------------------------------------------
    # Run (one feed, one drain)
    # ------------------------------------------------------------------

    def run(
        self,
        trace: Iterable,
        max_ticks: Optional[int] = None,
        record_access_order: bool = False,
    ) -> SwitchStats:
        self.start(max_ticks=max_ticks, record_access_order=record_access_order)
        self.feed(trace)
        return self.finish()

    def _finalize_stats(self, schedule) -> None:
        stats = self.stats
        N = len(self._flow)
        vplans = self._vplans
        max_ticks = self._max_ticks
        R = self._R
        prof = self._profiler
        ins_tick = schedule.ins_tick
        pop_tick = schedule.pop_tick
        dest = schedule.dest
        egr_tick = schedule.egr_tick

        # ------------------------------------------------------------------
        # Statistics reconstruction (Python-native values, so serialized
        # output is byte-identical with the scalar engines).
        # ------------------------------------------------------------------
        if schedule.egr_assigned == N:
            stats.ticks = int(schedule.last_egress) + 1
        else:
            # The scalar loop also reports 0 for a negative max_ticks.
            stats.ticks = max(int(max_ticks), 0)

        stats.phantoms_generated = schedule.injected * len(vplans)
        stats.wasted_slots = self._swasted

        ordered = schedule.egress_rows
        stats.egressed = int(ordered.size)
        if ordered.size:
            ticks_sorted = egr_tick[ordered]
            stats.egress_ticks = ticks_sorted.tolist()
            # Latency keeps the arrival's Python type (int arrivals give
            # int latencies, fractional ones floats) exactly like the
            # scalar engines' per-packet subtraction; one type throughout
            # is one subtraction in int64 or IEEE-double arithmetic.
            arrivals = stats.arrival_ticks
            kinds = set(map(type, arrivals))
            if kinds in ({int}, {float}):
                arrived = np.fromiter(
                    arrivals,
                    dtype=np.int64 if kinds.pop() is int else np.float64,
                    count=len(arrivals),
                )[ordered]
                stats.latencies = (ticks_sorted - arrived).tolist()
            else:
                stats.latencies = [
                    t - arrivals[row]
                    for t, row in zip(stats.egress_ticks, ordered.tolist())
                ]
            flow_ids = self._flow
            if flow_ids.count(None) < N:
                flow_egress = stats.flow_egress
                for row in ordered.tolist():
                    fid = flow_ids[row]
                    if fid is not None:
                        flow_egress.setdefault(fid, []).append(row)

        steering = 0
        for pi in range(len(vplans)):
            prev = schedule.entry_pipe if pi == 0 else dest[pi - 1]
            steering += int(
                np.count_nonzero((ins_tick[pi] >= 0) & (dest[pi] != prev))
            )
        stats.steering_moves = steering

        max_depth = 0
        peaks = stats.per_stage_peak_queue
        for pi, plan in enumerate(vplans):
            for pipe, members in enumerate(schedule.lanes[pi]):
                ins = ins_tick[pi][members]
                ins = ins[ins >= 0]
                if ins.size == 0:
                    continue
                # A group pops in id order, so its executed pops are
                # already a rising prefix.
                pops = pop_tick[pi][members]
                pops = pops[pops >= 0]
                ins_sorted = np.sort(ins)
                # End-of-tick data occupancy changes only at event
                # ticks; its peak lands on an insert tick.
                occ = np.searchsorted(pops, ins_sorted, side="right")
                occ = np.arange(1, ins_sorted.shape[0] + 1) - occ
                peak = int(occ.max())
                if peak > 0:
                    peaks[(pipe, plan.stage)] = peak
                    if peak > max_depth:
                        max_depth = peak
        stats.max_queue_depth = max_depth
        self.tick = stats.ticks  # display parity with the scalar loop

        for name, arr in R.items():
            self.registers[name] = arr.tolist()

        if prof is not None and stats.ticks:
            # Epoch boundaries Phase A resolved, plus the final span; a
            # run that never steps resolves none.
            start = 0
            records = schedule.remap_records
            for i, (boundary, moved) in enumerate(records):
                prof.record_epoch(
                    i, start, int(boundary), remap_moves=int(moved)
                )
                start = int(boundary)
            prof.record_epoch(len(records), start, stats.ticks)
        if self._sinks_attached:
            self._replay_sinks(
                schedule, drained=(schedule.egr_assigned == N)
            )
