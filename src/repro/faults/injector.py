"""The per-run fault state machine driven by a :class:`FaultSchedule`.

One :class:`FaultInjector` is attached per switch instance
(``MP5Switch.attach_faults``); at the top of every tick the engine calls
:meth:`FaultInjector.begin_tick`, which

1. closes fault windows ending at this tick (restoring shrunk FIFO
   capacities) and opens windows starting at it,
2. recomputes the per-tick ``stalled`` and ``crossbar_failed`` pipeline
   sets the hot paths consult, and
3. runs due emergency remaps per the degradation policy (drain, then
   retry with backoff while in-flight packets pin indices in place).

On a tick where none of that happens it only re-derives ``stalled``
(a slowdown's changes per tick). Two questions are answered from the
schedule alone, so the fast engine can skip ticks nothing observes:
:meth:`FaultInjector.next_change` (the next tick ``begin_tick`` has
work) and :meth:`FaultInjector.egress_tick` (when a packet in its
pipeline's stateless tail egresses, stalls included).

Determinism contract: every decision is a pure function of (tick,
schedule, seed, packet id). Phantom loss/delay draws use the same
integer hash both engines share (:func:`repro.domino.builtins.hash2`)
keyed by packet id — never draw-order-dependent RNG state — so the fast
and reference engines make identical choices even though they evaluate
packets in different orders.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Set, Tuple

from ..domino.builtins import hash2
from .schedule import (
    KIND_CROSSBAR,
    KIND_FIFO,
    KIND_PHANTOM,
    KIND_STALL,
    FaultEvent,
    FaultSchedule,
)

_HASH_SPAN = 1000003  # prime modulus for rate-threshold draws
NEVER = 1 << 62  # next_change when nothing is left to happen


def _stall_services(event: FaultEvent, tick: int) -> bool:
    """True when a slowed pipeline gets a service slot at ``tick``.

    ``service_rate`` r in (0, 1) admits service on the ticks where the
    integer part of the accumulated rate advances — a pure function of
    the tick, so both engines agree without shared state."""
    rate = event.service_rate
    if rate <= 0.0:
        return False
    offset = tick - event.start
    return int((offset + 1) * rate) > int(offset * rate)


class FaultInjector:
    """Applies one schedule to one switch run (not reusable)."""

    def __init__(self, schedule: FaultSchedule, num_pipelines: int):
        schedule.validate(num_pipelines)
        self.schedule = schedule
        self.num_pipelines = num_pipelines
        self.seed = schedule.seed
        # Window transitions precomputed: tick -> [(index, event)].
        self._starts: Dict[int, List[Tuple[int, FaultEvent]]] = {}
        self._ends: Dict[int, List[Tuple[int, FaultEvent]]] = {}
        # Stall windows per pipeline, for egress_tick.
        self._stalls: List[List[FaultEvent]] = [[] for _ in range(num_pipelines)]
        for idx, event in enumerate(schedule.faults):
            self._starts.setdefault(event.start, []).append((idx, event))
            self._ends.setdefault(event.end, []).append((idx, event))
            if event.kind == KIND_STALL:
                self._stalls[event.pipeline].append(event)
        # Every tick at which a window opens or closes, ascending.
        self._changes = sorted(set(self._starts) | set(self._ends))
        self.has_phantom_faults = any(
            event.kind == KIND_PHANTOM for event in schedule.faults
        )
        self._next = 0  # the first tick begin_tick has work at
        self._active: List[Tuple[int, FaultEvent]] = []
        self._phantom_active: List[Tuple[int, FaultEvent]] = []
        self._stall_active: List[Tuple[int, FaultEvent]] = []
        self._unavailable: Set[int] = set()
        self._base_capacity = None  # snapshotted at the first tick
        # Per-tick sets the engine hot paths consult (None = inactive,
        # so the gate stays a single "is not None" check).
        self.stalled: Optional[Set[int]] = None
        self.crossbar_failed: Optional[Set[int]] = None
        # Pipelines under a full stall (service_rate 0) for the open
        # windows: frozen on every tick until the next change.
        self.frozen: Set[int] = set()
        # Degradation protocol state: pending emergency remaps.
        self._pending_remaps: List[Dict] = []
        # Packets dropped mid-flight: their delayed phantoms are void.
        self._dropped: Set[int] = set()
        self.faults_started = 0
        self.faults_ended = 0

    # ------------------------------------------------------------------
    # Tick boundary
    # ------------------------------------------------------------------

    def begin_tick(self, tick: int, switch) -> None:
        """Advance the fault state machine to ``tick`` (phase 0 of the
        engine's step, before any packet moves)."""
        if tick < self._next:
            if self._stall_active:
                self._set_stalled(tick)
            return
        transition = False
        ending = self._ends.get(tick)
        if ending:
            transition = True
            ended = {id(event) for _idx, event in ending}
            self._active = [
                entry for entry in self._active if id(entry[1]) not in ended
            ]
            for _idx, event in ending:
                self.faults_ended += 1
                if switch.obs is not None:
                    switch.obs.fault_end(
                        tick, event.kind, event.pipeline, event.stage
                    )
        starting = self._starts.get(tick)
        if starting:
            transition = True
            policy = self.schedule.degradation
            for idx, event in starting:
                self._active.append((idx, event))
                self.faults_started += 1
                if switch.obs is not None:
                    switch.obs.fault_start(
                        tick, event.kind, event.pipeline, event.stage
                    )
                if (
                    event.kind in (KIND_STALL, KIND_CROSSBAR)
                    and event.degrade
                    and policy.enabled
                    and not any(
                        r["pipe"] == event.pipeline
                        for r in self._pending_remaps
                    )
                ):
                    self._pending_remaps.append(
                        {
                            "pipe": event.pipeline,
                            "due": tick + policy.drain_ticks,
                            "attempt": 0,
                        }
                    )
        if transition:
            self._refresh_active(switch)
        self._set_stalled(tick)
        if self._pending_remaps:
            self._run_due_remaps(tick, switch)
        self._next = self.next_change(tick + 1)

    def _set_stalled(self, tick: int) -> None:
        """Per-tick stall set: full stalls hold for the window; slowdowns
        release the pipeline only on their service ticks."""
        stalled = {
            event.pipeline
            for _idx, event in self._stall_active
            if not _stall_services(event, tick)
        }
        self.stalled = stalled or None

    def next_change(self, tick: int) -> int:
        """The first tick ``>= tick`` at which a window opens or closes
        or an emergency-remap attempt falls due (:data:`NEVER` if none):
        until then :meth:`begin_tick` changes nothing but a slowdown's
        per-tick ``stalled`` set."""
        i = bisect_left(self._changes, tick)
        nxt = self._changes[i] if i < len(self._changes) else NEVER
        for request in self._pending_remaps:
            if request["due"] < nxt:
                nxt = request["due"]
        return nxt

    def egress_tick(self, tick: int, pipe: int, hops: int) -> int:
        """The tick at which a packet that entered ``pipe``'s stateless
        tail at ``tick`` egresses, ``hops`` moves later: the ``hops``-th
        tick after ``tick`` on which ``pipe`` is not stalled. A full
        stall skips to its window's end; a slowdown counts its service
        ticks (:func:`_stall_services`)."""
        windows = self._stalls[pipe]
        t = tick
        while hops:
            t += 1
            active = [e for e in windows if e.start <= t < e.end]
            if not active:
                # Free until the next window on this pipeline opens.
                opens = min((e.start for e in windows if e.start > t), default=NEVER)
                if opens - t >= hops:
                    return t + hops - 1
                hops -= opens - t
                t = opens - 1
                continue
            full = [e.end for e in active if e.service_rate <= 0.0]
            if full:
                t = max(full) - 1
            elif all(_stall_services(e, t) for e in active):
                hops -= 1
        return t

    def _refresh_active(self, switch) -> None:
        """Recompute the derived views after a window transition."""
        self._stall_active = [
            entry for entry in self._active if entry[1].kind == KIND_STALL
        ]
        self.frozen = {
            event.pipeline
            for _idx, event in self._stall_active
            if event.service_rate <= 0.0
        }
        self._phantom_active = [
            entry for entry in self._active if entry[1].kind == KIND_PHANTOM
        ]
        failed = {
            event.pipeline
            for _idx, event in self._active
            if event.kind == KIND_CROSSBAR
        }
        self.crossbar_failed = failed or None
        self._unavailable = failed | {
            event.pipeline
            for _idx, event in self._active
            if event.kind == KIND_STALL
        }
        self._apply_fifo_capacity(switch)

    def _apply_fifo_capacity(self, switch) -> None:
        """Re-derive every FIFO's capacity from the base snapshot plus
        all active shrink windows (overlaps compose via min)."""
        if self._base_capacity is None:
            self._base_capacity = {
                key: fifo.capacity for key, fifo in switch.fifos.items()
            }
        shrinks = [e for _i, e in self._active if e.kind == KIND_FIFO]
        for key, fifo in switch.fifos.items():
            capacity = self._base_capacity[key]
            for event in shrinks:
                if event.pipeline is not None and event.pipeline != key[0]:
                    continue
                if event.stage is not None and event.stage != key[1]:
                    continue
                capacity = (
                    event.capacity
                    if capacity is None
                    else min(capacity, event.capacity)
                )
            fifo.capacity = capacity

    # ------------------------------------------------------------------
    # Degradation protocol
    # ------------------------------------------------------------------

    def _run_due_remaps(self, tick: int, switch) -> None:
        policy = self.schedule.degradation
        keep: List[Dict] = []
        for request in self._pending_remaps:
            if request["due"] > tick:
                keep.append(request)
                continue
            pipe = request["pipe"]
            if pipe not in self._unavailable:
                continue  # the pipeline recovered before the drain ended
            healthy = [
                p for p in range(self.num_pipelines)
                if p not in self._unavailable
            ]
            if not healthy:
                moved, deferred = 0, -1  # nowhere to go; retry later
            else:
                moved, deferred = switch.sharder.emergency_remap(
                    pipe, healthy
                )
            stats = switch.stats
            stats.emergency_remaps += 1
            stats.emergency_remap_moves += moved
            if switch.obs is not None:
                switch.obs.emergency_remap(
                    tick, pipe, moved, max(deferred, 0), request["attempt"]
                )
            if deferred and request["attempt"] + 1 < policy.max_retries:
                request["attempt"] += 1
                request["due"] = tick + policy.retry_backoff
                keep.append(request)
        self._pending_remaps = keep

    # ------------------------------------------------------------------
    # Per-packet decisions (order-independent)
    # ------------------------------------------------------------------

    def phantom_fault(
        self, pkt_id: int, pipeline: int, stage: int
    ) -> Tuple[bool, int]:
        """Phantom-channel verdict for one emission: (lost, extra delay).

        The draw hashes (pkt_id, stage, event index, seed), so a packet
        with phantoms toward several stages gets independent verdicts
        and both engines — whatever order they emit in — agree."""
        for idx, event in self._phantom_active:
            if event.pipeline is not None and event.pipeline != pipeline:
                continue
            if event.stage is not None and event.stage != stage:
                continue
            salt = self.seed * 7919 + idx * 8191 + stage * 131
            if event.loss_rate > 0.0:
                draw = hash2(pkt_id * 2 + 1, salt) % _HASH_SPAN
                if draw < event.loss_rate * _HASH_SPAN:
                    return True, 0
            if event.delay > 0 and event.delay_rate > 0.0:
                draw = hash2(pkt_id * 2, salt) % _HASH_SPAN
                if draw < event.delay_rate * _HASH_SPAN:
                    return False, event.delay
        return False, 0

    def active_windows(self) -> List[Dict]:
        """The fault windows currently open, as evidence-ready dicts.

        The invariant monitor (:mod:`repro.obs.monitor`) tags every
        alert raised during a fault with this list, so an alert log
        names the schedule window — kind, target, [start, end) — that
        was active when delivery degraded. Ordered by schedule position,
        so both engines report identical evidence."""
        return [
            {
                "kind": event.kind,
                "pipe": event.pipeline,
                "stage": event.stage,
                "start": event.start,
                "end": event.end,
            }
            for _idx, event in sorted(self._active, key=lambda e: e[0])
        ]

    def pending_remaps(self) -> List[Dict]:
        """Emergency remaps requested but not yet fully executed.

        Each entry names the evacuating pipeline and the tick the move
        becomes due. Non-empty means the sharder is still moving state
        away from a degraded pipeline — the service health endpoint
        reports this phase as ``degraded``."""
        return [
            {"pipe": r["pipe"], "due": r["due"]} for r in self._pending_remaps
        ]

    def note_dropped(self, pkt_id: int) -> None:
        """A data packet dropped; any still-undelivered (delayed) phantom
        of its is void — delivering it would wedge a FIFO head forever."""
        self._dropped.add(pkt_id)

    def is_cancelled(self, pkt_id: int) -> bool:
        return pkt_id in self._dropped
