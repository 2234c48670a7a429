"""Online invariant monitors for the MP5 engines.

:class:`InvariantMonitor` watches a run *while it executes*: it
implements the same duck-typed emitter surface as
:class:`~repro.obs.trace.TraceRecorder` (so the engine feeds it through
the existing single ``obs`` attribute check — zero cost when detached)
plus two tick-boundary hooks (``end_tick``/``end_run``) the engines
call when a monitor is attached. From that stream it checks, online:

* **c1_order** — per-state arrival-order access: the data packets
  popped for one ``(stage, array, index)`` must carry ascending packet
  ids among survivors (C1, §3.2).
* **phantom_pairing** — every phantom emitted is eventually matched by
  its data packet, counted lost by the channel, or expired when the
  packet drops; a packet may never egress with phantoms outstanding.
* **conservation** — injected = in-flight + egressed + dropped, the
  monitor's event-derived counts agree with the engine's ``_live`` and
  ``SwitchStats`` bookkeeping, and per-reason drop counts sum to the
  drop total.
* **shard_exclusivity** — the index-to-pipeline maps only change on
  remap ticks, stay in range, keep pinned arrays whole, and never move
  an index that had packets in flight (the §3.4 safety rule).
* **fifo_sanity** — each FIFO group's incremental occupancy counters
  match its ring buffers, never go negative, respect the high-water
  mark, and no ring exceeds the largest capacity it was granted.
* **lossless_delivery** — no data packet is lost. The first drop per
  reason raises a critical alert tagged with the fault windows active
  at that tick (via :meth:`repro.faults.FaultInjector.active_windows`),
  so a chaos run reports *when* and *why* delivery degraded.

Violations become ``critical`` :class:`~repro.obs.alerts.Alert`
records (deduplicated per invariant + site so a persistent breakage
cannot flood the log; totals are kept in :attr:`violations`); the
attached :class:`~repro.obs.alerts.AnomalyDetector` contributes
``warning`` alerts at window boundaries. Every check is a function of
the event stream and tick-boundary switch state only — never of
within-tick packet visit order — so the fast and reference engines
produce identical alert streams (asserted modulo
:func:`~repro.obs.events.canonical_form` by the differential tests).
"""

from __future__ import annotations

from functools import partial
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ..errors import ConfigError
from .alerts import (
    Alert,
    AlertLog,
    AnomalyDetector,
    DETECTOR_SERIES,
    SEVERITY_CRITICAL,
    SEVERITY_INFO,
)
from .health import HealthReport
from .metrics import MetricsRegistry

#: The invariants the monitor checks, in documentation order.
INVARIANTS = (
    "c1_order",
    "phantom_pairing",
    "conservation",
    "shard_exclusivity",
    "fifo_sanity",
    "lossless_delivery",
)


class TeeEmitter:
    """Fan one engine event stream out to several emitter sinks (e.g. a
    TraceRecorder and an InvariantMonitor on the same run) behind the
    engine's single ``obs`` attribute."""

    __slots__ = ("sinks",)

    def __init__(self, *sinks):
        self.sinks = sinks

    def ingress(self, *args):
        for sink in self.sinks:
            sink.ingress(*args)

    def phantom_emit(self, *args):
        for sink in self.sinks:
            sink.phantom_emit(*args)

    def phantom_loss(self, *args):
        for sink in self.sinks:
            sink.phantom_loss(*args)

    def phantom_match(self, *args):
        for sink in self.sinks:
            sink.phantom_match(*args)

    def steer(self, *args):
        for sink in self.sinks:
            sink.steer(*args)

    def fifo_block(self, *args):
        for sink in self.sinks:
            sink.fifo_block(*args)

    def fifo_pop(self, *args):
        for sink in self.sinks:
            sink.fifo_pop(*args)

    def service(self, *args):
        for sink in self.sinks:
            sink.service(*args)

    def ecn_mark(self, *args):
        for sink in self.sinks:
            sink.ecn_mark(*args)

    def remap(self, *args):
        for sink in self.sinks:
            sink.remap(*args)

    def egress(self, *args):
        for sink in self.sinks:
            sink.egress(*args)

    def drop(self, *args):
        for sink in self.sinks:
            sink.drop(*args)

    def fault_start(self, *args):
        for sink in self.sinks:
            sink.fault_start(*args)

    def fault_end(self, *args):
        for sink in self.sinks:
            sink.fault_end(*args)

    def emergency_remap(self, *args):
        for sink in self.sinks:
            sink.emergency_remap(*args)


_LOSS_SUBSYSTEM = {
    "crossbar_down": "crossbar",
    "no_phantom": "phantom_channel",
    "phantom_fifo_full": "phantom_channel",
    "fifo_full": "fifo",
}


class InvariantMonitor:
    """Streaming invariant checker + anomaly detector for one run.

    Construct one per run, pass it to ``run_mp5(..., monitor=...)`` /
    ``run_mp5_reference(..., monitor=...)`` or attach directly with
    ``switch.attach_observability(monitor=...)``, then read
    :attr:`alerts` and :meth:`health_report` after the run.
    ``window`` is the anomaly detector's window in ticks.
    """

    def __init__(self, window: int = 100):
        self.alerts = AlertLog()
        self.detector = AnomalyDetector(window)
        self.registry = MetricsRegistry(window=window)
        self.violations: Dict[str, int] = {}
        self.injected = 0
        self.egressed = 0
        self.dropped = 0
        self.drops_by_reason: Dict[str, int] = {}
        self.final_tick = 0
        self.drained = True
        # pkt -> {stage: (array, index)} learned from phantom emissions;
        # the C1 key of the access the packet performs at that stage.
        self._acc: Dict[int, Dict[int, Tuple[str, Optional[int]]]] = {}
        # (stage, array, index) -> highest pkt id popped so far. Lane
        # fallback keys ("lane", pipe, stage) cover phantom-less runs.
        self._c1_high: Dict[Tuple, int] = {}
        # pkt -> phantoms emitted but not yet matched/lost/expired.
        self._outstanding: Dict[int, int] = {}
        # pkt ids that already egressed or dropped (a fault-delayed
        # phantom may be reported lost after its packet finalized).
        self._finalized: Set[int] = set()
        # pkt -> tick it entered a stage FIFO (wait accounting).
        self._queued: Dict[int, int] = {}
        # Running totals of those waits and of the pops that ended them.
        self.waits = SimpleNamespace(sum=0, count=0)
        # Alert dedup keys already raised (one alert per invariant+site).
        self._alerted: Set[Tuple] = set()
        # Drops observed this tick, by reason (flushed by end_tick).
        self._tick_drops: Dict[str, int] = {}
        # Fault windows currently open, from fault_start/fault_end.
        self._active_faults: Dict[Tuple, Dict] = {}
        # Shard-map state for the exclusivity check.
        self._shard_maps: Dict[str, np.ndarray] = {}
        self._inflight_prev: Dict[str, np.ndarray] = {}
        self._remap_tick = False
        # Largest capacity each FIFO group was ever granted (None =
        # unbounded at some point; a fifo_shrink fault may later lower
        # ``fifo.capacity`` below the current occupancy legally).
        self._fifo_maxcap: Dict[Tuple[int, int], Optional[int]] = {}
        self._switch = None
        self._last_detector_roll = -1

    # ------------------------------------------------------------------
    # Attachment
    # ------------------------------------------------------------------

    def bind(self, switch) -> None:
        """Called by ``attach_observability``: snapshot the shard maps
        and register the anomaly detector's series."""
        if self._switch is not None:
            raise ConfigError(
                "an InvariantMonitor tracks one run; construct a fresh "
                "monitor per switch"
            )
        self._switch = switch
        self._register_series(
            {name: read for name, _cum, read in switch._metric_sources()}
        )
        for name, state in switch.sharder.arrays.items():
            self._shard_maps[name] = state.index_to_pipeline.copy()
            self._inflight_prev[name] = state.in_flight.copy()

    def _register_series(self, sources: Dict[str, Callable[[], int]]) -> None:
        """Register :data:`~repro.obs.alerts.DETECTOR_SERIES` as
        cumulative samplers: the switch's from ``sources`` (name ->
        read), the wait totals from ``self.waits`` (no closure over the
        monitor, so the registry holds no reference cycle)."""
        waits = self.waits
        sources = dict(
            sources, phantom_wait_sum=partial(getattr, waits, "sum"),
            phantom_wait_count=partial(getattr, waits, "count"),
        )
        for name in DETECTOR_SERIES:
            self.registry.add_sampler(name, sources[name], cumulative=True)

    # ------------------------------------------------------------------
    # Alert plumbing
    # ------------------------------------------------------------------

    def _fault_context(self) -> List[Dict]:
        if self._switch is not None and self._switch._faults is not None:
            return self._switch._faults.active_windows()
        return sorted(
            self._active_faults.values(),
            key=lambda w: (w["kind"], w.get("pipe") is None, w.get("pipe")),
        )

    def _violation(
        self,
        tick: int,
        invariant: str,
        subsystem: str,
        message: str,
        evidence: Dict,
        dedup=None,
        weight: int = 1,
    ) -> None:
        self.violations[invariant] = self.violations.get(invariant, 0) + weight
        key = (invariant, dedup)
        if key in self._alerted:
            return
        self._alerted.add(key)
        faults = self._fault_context()
        if faults:
            evidence = dict(evidence)
            evidence["active_faults"] = faults
        self.alerts.append(
            Alert(
                severity=SEVERITY_CRITICAL,
                tick=tick,
                subsystem=subsystem,
                kind="invariant_violation" if invariant != "lossless_delivery"
                else "packet_loss",
                message=message,
                invariant=invariant,
                evidence=evidence,
            )
        )

    def _info(
        self, tick: int, subsystem: str, kind: str, message: str, evidence: Dict
    ) -> None:
        self.alerts.append(
            Alert(
                severity=SEVERITY_INFO,
                tick=tick,
                subsystem=subsystem,
                kind=kind,
                message=message,
                evidence=evidence,
            )
        )

    # ------------------------------------------------------------------
    # Engine-facing emitters (TraceRecorder surface)
    # ------------------------------------------------------------------

    def ingress(self, tick, pkt, pipe, port, flow) -> None:
        self.injected += 1

    def phantom_emit(self, tick, pkt, pipe, stage, array, index) -> None:
        table = self._acc.get(pkt)
        if table is None:
            table = self._acc[pkt] = {}
        table[stage] = (array, index)
        self._outstanding[pkt] = self._outstanding.get(pkt, 0) + 1

    def phantom_loss(self, tick, pkt, pipe, stage, array) -> None:
        if pkt in self._finalized:
            return  # delayed phantom of an already-dropped packet
        count = self._outstanding.get(pkt, 0) - 1
        if count < 0:
            self._violation(
                tick,
                "phantom_pairing",
                "phantom_channel",
                f"phantom loss reported for pkt {pkt} with no phantom "
                f"outstanding",
                {"pkt": pkt, "pipe": pipe, "stage": stage, "array": array},
                dedup="loss_without_emit",
            )
            return
        self._outstanding[pkt] = count

    def phantom_match(self, tick, pkt, pipe, stage) -> None:
        self._queued[pkt] = tick
        count = self._outstanding.get(pkt, 0) - 1
        if count < 0:
            self._match_without_emit(tick, pkt, pipe, stage)
            return
        self._outstanding[pkt] = count

    def _match_without_emit(self, tick, pkt, pipe, stage) -> None:
        self._violation(
            tick,
            "phantom_pairing",
            "phantom_channel",
            f"data packet {pkt} matched a phantom that was never "
            f"emitted",
            {"pkt": pkt, "pipe": pipe, "stage": stage},
            dedup="match_without_emit",
        )

    def steer(self, tick, pkt, src, pipe, stage) -> None:
        self._queued.setdefault(pkt, tick)

    def fifo_block(self, tick, pipe, stage) -> None:
        pass

    def fifo_pop(self, tick, pkt, pipe, stage) -> None:
        waits = self.waits
        waits.sum += tick - self._queued.pop(pkt, tick)
        waits.count += 1
        table = self._acc.get(pkt)
        access = table.get(stage) if table is not None else None
        if access is not None:
            array, index = access
            if index is None:
                # Array-level accesses carry no in-flight accounting, so
                # a remap may legally interleave them; C1 applies to the
                # per-index states the paper shards.
                return
            key = (stage, array, index)
        else:
            # Phantom-less run: within one FIFO group, pops follow the
            # push timestamps, which follow arrival order.
            key = ("lane", pipe, stage)
        high = self._c1_high.get(key, -1)
        if pkt < high:
            self._c1_violation(tick, pkt, high, key, pipe, stage)
        else:
            self._c1_high[key] = pkt

    def _c1_violation(self, tick, pkt, high, key, pipe, stage) -> None:
        self._violation(
            tick,
            "c1_order",
            "fifo",
            f"packet {pkt} serviced after packet {high} at "
            f"{key!r} — arrival-order state access broken",
            {
                "pkt": pkt,
                "prev_pkt": high,
                "pipe": pipe,
                "stage": stage,
                "key": list(key),
            },
            dedup=key,
        )

    def service(self, tick, pkt, pipe, stage) -> None:
        pass

    def ecn_mark(self, tick, pkt, pipe, stage) -> None:
        pass

    def remap(self, tick, moves) -> None:
        self._remap_tick = True

    def egress(self, tick, pkt, latency) -> None:
        self.egressed += 1
        self._finalized.add(pkt)
        self._queued.pop(pkt, None)
        self._acc.pop(pkt, None)
        outstanding = self._outstanding.pop(pkt, 0)
        if outstanding:
            self._egress_outstanding(tick, pkt, outstanding)

    def _egress_outstanding(self, tick, pkt, outstanding) -> None:
        self._violation(
            tick,
            "phantom_pairing",
            "phantom_channel",
            f"packet {pkt} egressed with {outstanding} phantom(s) "
            f"never matched or accounted lost",
            {"pkt": pkt, "outstanding": outstanding},
            dedup="egress_outstanding",
        )

    def drop(self, tick, pkt, reason) -> None:
        self.dropped += 1
        self.drops_by_reason[reason] = self.drops_by_reason.get(reason, 0) + 1
        self._finalized.add(pkt)
        self._queued.pop(pkt, None)
        self._acc.pop(pkt, None)
        self._outstanding.pop(pkt, None)  # expired with the packet
        # Loss alerts are raised at the tick boundary from the per-tick
        # aggregate: which packet dropped first within a tick depends on
        # engine-internal visit order, and alert streams must not.
        self._tick_drops[reason] = self._tick_drops.get(reason, 0) + 1

    def fault_start(self, tick, kind, pipe, stage) -> None:
        window = {"kind": kind, "pipe": pipe, "stage": stage, "start": tick}
        self._active_faults[(kind, pipe, stage)] = window
        self._info(
            tick,
            "faults",
            "fault_start",
            f"fault window opened: {kind} "
            f"(pipe={pipe}, stage={stage})",
            dict(window),
        )

    def fault_end(self, tick, kind, pipe, stage) -> None:
        window = self._active_faults.pop(
            (kind, pipe, stage), {"kind": kind, "pipe": pipe, "stage": stage}
        )
        evidence = dict(window)
        evidence["end"] = tick
        self._info(
            tick,
            "faults",
            "fault_end",
            f"fault window closed: {kind} "
            f"(pipe={pipe}, stage={stage})",
            evidence,
        )

    def emergency_remap(self, tick, pipe, moved, deferred, attempt) -> None:
        self._remap_tick = True
        self._info(
            tick,
            "sharding",
            "emergency_remap",
            f"emergency remap evacuated pipeline {pipe}: "
            f"{moved} indices moved, {deferred} deferred "
            f"(attempt {attempt})",
            {
                "pipe": pipe,
                "moved": moved,
                "deferred": deferred,
                "attempt": attempt,
            },
        )

    # ------------------------------------------------------------------
    # Tick-boundary checks (called by both engines' _step)
    # ------------------------------------------------------------------

    def end_tick(self, tick: int, switch) -> None:
        if self._tick_drops:
            for reason in sorted(self._tick_drops):
                count = self._tick_drops[reason]
                self._violation(
                    tick,
                    "lossless_delivery",
                    _LOSS_SUBSYSTEM.get(reason, "switch"),
                    f"{count} data packet(s) dropped ({reason}) this "
                    f"tick — first loss for this reason",
                    {"reason": reason, "count": count},
                    dedup=("drop", reason),
                    weight=count,
                )
            self._tick_drops.clear()
        self._check_conservation(tick, switch)
        self._check_fifos(tick, switch)
        if self._remap_tick:
            self._remap_tick = False
            self._check_shard_maps(tick, switch)
        for name, state in switch.sharder.arrays.items():
            np.copyto(self._inflight_prev[name], state.in_flight)
        # Close the detector window if ``tick`` is a roll tick.
        self.registry.maybe_roll(tick)
        if self.registry._last_roll == tick:
            self.detect(tick)

    def detect(self, tick: int) -> None:
        """Run the anomaly rules once over the private registry's
        window closed at ``tick`` (the row may come from a block
        append that already holds later windows)."""
        if tick != self._last_detector_roll:
            self._last_detector_roll = tick
            for alert in self.detector.examine(self.registry, tick):
                self.alerts.append(alert)

    def _negative_in_flight(self, tick, injected, egressed, dropped) -> None:
        self._violation(
            tick,
            "conservation",
            "engine",
            f"more packets egressed+dropped than injected "
            f"(in-flight {injected - egressed - dropped})",
            {"injected": injected, "egressed": egressed, "dropped": dropped},
            dedup="negative_in_flight",
        )

    def _check_conservation(self, tick: int, switch) -> None:
        in_flight = self.injected - self.egressed - self.dropped
        stats = switch.stats
        if in_flight < 0:
            self._negative_in_flight(
                tick, self.injected, self.egressed, self.dropped
            )
        if switch._live != in_flight:
            self._violation(
                tick,
                "conservation",
                "engine",
                f"engine live-packet count {switch._live} != "
                f"event-derived in-flight {in_flight}",
                {
                    "live": switch._live,
                    "injected": self.injected,
                    "egressed": self.egressed,
                    "dropped": self.dropped,
                },
                dedup="live_mismatch",
            )
        if stats.egressed != self.egressed or stats.dropped != self.dropped:
            self._violation(
                tick,
                "conservation",
                "engine",
                f"SwitchStats disagrees with the event stream "
                f"(stats egressed={stats.egressed} dropped={stats.dropped}, "
                f"events egressed={self.egressed} dropped={self.dropped})",
                {
                    "stats_egressed": stats.egressed,
                    "stats_dropped": stats.dropped,
                    "egressed": self.egressed,
                    "dropped": self.dropped,
                },
                dedup="stats_mismatch",
            )
        if sum(self.drops_by_reason.values()) != self.dropped:
            self._violation(
                tick,
                "conservation",
                "engine",
                "per-reason drop counts do not sum to the drop total",
                {
                    "by_reason": dict(self.drops_by_reason),
                    "dropped": self.dropped,
                },
                dedup="reason_sum",
            )

    def _check_fifos(self, tick: int, switch) -> None:
        for key, fifo in switch.fifos.items():
            total = fifo._total
            data = fifo._data
            buffers = getattr(fifo, "buffers", None)
            if buffers is not None:
                slots = sum(len(b) for b in buffers)
            else:
                slots = sum(len(q) for q in fifo.queues.values())
            if data < 0 or data > total or total != slots:
                self._fifo_counters(tick, key, total, data, slots)
            if fifo.peak_occupancy < total:
                self._violation(
                    tick,
                    "fifo_sanity",
                    "fifo",
                    f"FIFO {key} high-water mark {fifo.peak_occupancy} "
                    f"below current occupancy {total}",
                    {
                        "fifo": list(key),
                        "peak": fifo.peak_occupancy,
                        "total": total,
                    },
                    dedup=("peak", key),
                )
            if buffers is None:
                continue  # the ideal buffer is unbounded by design
            capacity = fifo.capacity
            if capacity is None:
                self._fifo_maxcap[key] = None
            elif key not in self._fifo_maxcap:
                self._fifo_maxcap[key] = capacity
            else:
                known = self._fifo_maxcap[key]
                if known is not None and capacity > known:
                    self._fifo_maxcap[key] = capacity
            bound = self._fifo_maxcap[key]
            if bound is not None:
                worst = max(len(b) for b in buffers)
                if worst > bound:
                    self._violation(
                        tick,
                        "fifo_sanity",
                        "fifo",
                        f"FIFO {key} ring holds {worst} slots, above the "
                        f"largest capacity ever granted ({bound})",
                        {
                            "fifo": list(key),
                            "occupancy": worst,
                            "capacity": bound,
                        },
                        dedup=("bound", key),
                    )

    def _fifo_counters(self, tick, key, total, data, slots) -> None:
        self._violation(
            tick,
            "fifo_sanity",
            "fifo",
            f"FIFO {key} occupancy counters inconsistent "
            f"(total={total} data={data} slots={slots})",
            {"fifo": list(key), "total": total, "data": data, "slots": slots},
            dedup=("counters", key),
        )

    def _lane_pop_rate(self, tick, key, pops) -> None:
        """A lane popped more than once in a tick. The scalar engines
        cannot (one pop per group per tick is how ``_step`` is built);
        a vector schedule is checked for it."""
        self._violation(
            tick,
            "fifo_sanity",
            "fifo",
            f"FIFO {key} popped {pops} data packets in one tick — a "
            f"lane pops at most one",
            {"fifo": list(key), "pops": pops},
            dedup=("pop_rate", key),
        )

    def _check_shard_maps(self, tick: int, switch) -> None:
        k = switch.config.num_pipelines
        for name, state in switch.sharder.arrays.items():
            current = state.index_to_pipeline
            if current.size and (
                int(current.min()) < 0 or int(current.max()) >= k
            ):
                self._violation(
                    tick,
                    "shard_exclusivity",
                    "sharding",
                    f"array {name!r} maps an index to a pipeline outside "
                    f"[0, {k})",
                    {"array": name, "min": int(current.min()),
                     "max": int(current.max())},
                    dedup=("range", name),
                )
            if not state.shardable and current.size and (
                int(current.min()) != int(current.max())
            ):
                self._violation(
                    tick,
                    "shard_exclusivity",
                    "sharding",
                    f"pinned array {name!r} is split across pipelines",
                    {"array": name},
                    dedup=("pinned", name),
                )
            previous = self._shard_maps[name]
            changed = np.nonzero(current != previous)[0]
            if changed.size:
                inflight_prev = self._inflight_prev[name]
                for index in changed:
                    idx = int(index)
                    # A regular remap (phase 6) must see zero in flight
                    # now; an emergency remap (phase 0) sees zero at the
                    # previous tick boundary but injections later in the
                    # same tick may target the new location.
                    if state.in_flight[idx] and inflight_prev[idx]:
                        self._moved_in_flight(
                            tick,
                            name,
                            idx,
                            int(previous[idx]),
                            int(current[idx]),
                            int(state.in_flight[idx]),
                        )
                np.copyto(previous, current)

    def _moved_in_flight(self, tick, name, idx, src, dst, in_flight) -> None:
        self._violation(
            tick,
            "shard_exclusivity",
            "sharding",
            f"array {name!r} index {idx} moved from pipeline {src} to "
            f"{dst} with packets in flight",
            {
                "array": name,
                "index": idx,
                "from": src,
                "to": dst,
                "in_flight": in_flight,
            },
            dedup=("in_flight", name),
        )

    # ------------------------------------------------------------------
    # End of run
    # ------------------------------------------------------------------

    def end_run(self, tick: int, switch, drained: bool) -> None:
        """Final checks once the run loop exits (called by ``run()``)."""
        self.final_tick = tick
        self.drained = drained
        self.registry.roll(tick)  # close the partial window (no detector
        # pass: a drain tail is not a throughput anomaly)
        if not drained:
            return  # truncated by max_ticks: in-flight state is legal
        if self._outstanding and any(self._outstanding.values()):
            dangling = {
                pkt: count
                for pkt, count in sorted(self._outstanding.items())
                if count
            }
            self._violation(
                tick,
                "phantom_pairing",
                "phantom_channel",
                f"{len(dangling)} packet(s) left phantoms neither matched "
                f"nor accounted lost at end of run",
                {"packets": list(dangling)[:8]},
                dedup="end_outstanding",
            )
        if self.injected != self.egressed + self.dropped:
            self._violation(
                tick,
                "conservation",
                "engine",
                f"drained run does not conserve packets "
                f"(injected={self.injected} egressed={self.egressed} "
                f"dropped={self.dropped})",
                {
                    "injected": self.injected,
                    "egressed": self.egressed,
                    "dropped": self.dropped,
                },
                dedup="final_conservation",
            )
        if self.injected != switch.stats.offered:
            self._violation(
                tick,
                "conservation",
                "engine",
                f"drained run injected {self.injected} of "
                f"{switch.stats.offered} offered packets",
                {
                    "injected": self.injected,
                    "offered": switch.stats.offered,
                },
                dedup="offered",
            )

    # ------------------------------------------------------------------

    def total_violations(self) -> int:
        return sum(self.violations.values())

    def invariant_violations(self) -> int:
        """Violations of the engine-correctness invariants (packet loss
        under faults is expected degradation, not an engine bug)."""
        return sum(
            count
            for name, count in self.violations.items()
            if name != "lossless_delivery"
        )

    def health_report(self) -> HealthReport:
        return HealthReport.from_alerts(
            list(self.alerts),
            ticks=self.final_tick,
            violations=self.violations,
            injected=self.injected,
            egressed=self.egressed,
            dropped=self.dropped,
            drained=self.drained,
        )
