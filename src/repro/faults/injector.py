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
(a slowdown's changes per tick). Other questions are answered from the
schedule alone: :meth:`FaultInjector.next_change` (the next tick
``begin_tick`` has work) and :meth:`FaultInjector.egress_tick` (the
``hops``-th tick a pipeline is not stalled) let the fast engine skip
ticks nothing observes, and with :meth:`FaultInjector.next_free`,
:meth:`FaultInjector.stalled_mask`, :meth:`FaultInjector.crossbar_down` and
:meth:`FaultInjector.fifo_capacity_steps` they are the calendar the
vector engine's per-row sweep (:mod:`repro.mp5.rowsweep`) resolves
timelines over without stepping a tick.

Determinism contract: every decision is a pure function of (tick,
schedule, seed, packet id). Phantom loss/delay draws use the same
integer hash both engines share (:func:`repro.domino.builtins.hash2`)
keyed by packet id — never draw-order-dependent RNG state — so the fast
and reference engines make identical choices even though they evaluate
packets in different orders.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
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


def _merged(windows: List[Tuple[int, int]]) -> Tuple[List[int], List[int]]:
    """``[start, end)`` windows as sorted, disjoint, non-touching runs
    ``(starts, ends)``."""
    starts: List[int] = []
    ends: List[int] = []
    for start, end in sorted(windows):
        if ends and start <= ends[-1]:
            ends[-1] = max(ends[-1], end)
        else:
            starts.append(start)
            ends.append(end)
    return starts, ends


def _covers(runs: Tuple[List[int], List[int]], tick: int) -> bool:
    """Whether one of the merged ``(starts, ends)`` runs holds ``tick``."""
    starts, ends = runs
    i = bisect_right(starts, tick) - 1
    return i >= 0 and tick < ends[i]


def _shrunk(
    capacity: Optional[int], shrinks: List[FaultEvent], pipe: int, stage: int
) -> Optional[int]:
    """``capacity`` (None = unbounded) under the ``fifo_shrink`` windows
    ``shrinks`` that target ``(pipe, stage)``: overlaps compose via min."""
    for event in shrinks:
        if event.pipeline is not None and event.pipeline != pipe:
            continue
        if event.stage is not None and event.stage != stage:
            continue
        if capacity is None or event.capacity < capacity:
            capacity = event.capacity
    return capacity


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
        # The calendar the schedule-only queries read, per pipeline:
        # full stalls and crossbar failures merged into disjoint
        # ``(starts, ends)`` runs, slowdown windows as listed and as
        # merged runs, and the first/last tick any stall touches.
        full: List[List[Tuple[int, int]]] = [[] for _ in range(num_pipelines)]
        down: List[List[Tuple[int, int]]] = [[] for _ in range(num_pipelines)]
        self._slow: List[List[FaultEvent]] = [[] for _ in range(num_pipelines)]
        self._shrinks: List[FaultEvent] = []
        for idx, event in enumerate(schedule.faults):
            self._starts.setdefault(event.start, []).append((idx, event))
            self._ends.setdefault(event.end, []).append((idx, event))
            if event.kind == KIND_STALL:
                if event.service_rate <= 0.0:
                    full[event.pipeline].append((event.start, event.end))
                else:
                    self._slow[event.pipeline].append(event)
            elif event.kind == KIND_CROSSBAR:
                down[event.pipeline].append((event.start, event.end))
            elif event.kind == KIND_FIFO:
                self._shrinks.append(event)
        self._full = [_merged(w) for w in full]
        self._down = [_merged(w) for w in down]
        self._slow_runs = [
            _merged([(e.start, e.end) for e in w]) for w in self._slow
        ]
        self._stall_span = [
            (
                min(f[0][:1] + s[0][:1], default=NEVER),
                max(f[1][-1:] + s[1][-1:], default=0),
            )
            for f, s in zip(self._full, self._slow_runs)
        ]
        # stalled_mask's table: the sorted edges of every pipeline's
        # merged full-stall and slowdown runs and, per segment from one
        # edge to the next, the mask of fully stalled pipelines and the
        # slowed ones left to resolve per tick.
        runs = self._full + self._slow_runs
        edges = sorted({at for starts, ends in runs for at in starts + ends})
        self._mask_edges = edges
        self._mask_full: List[int] = []
        self._mask_slow: List[Tuple[int, ...]] = []
        for at in edges:
            full_mask = 0
            slowed = []
            for pipe in range(num_pipelines):
                if _covers(self._full[pipe], at):
                    full_mask |= 1 << pipe
                elif _covers(self._slow_runs[pipe], at):
                    slowed.append(pipe)
            self._mask_full.append(full_mask)
            self._mask_slow.append(tuple(slowed))
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
        tick after ``tick`` on which ``pipe`` is not stalled (``tick``
        itself for 0 hops). A full stall is skipped by bisecting the
        pipeline's merged full-stall runs; only ticks inside a slowdown
        window are counted one by one (:func:`_stall_services`)."""
        first, last = self._stall_span[pipe]
        if tick + hops < first or tick + 1 >= last:
            return tick + hops
        fs, fe = self._full[pipe]
        ss, se = self._slow_runs[pipe]
        t = tick  # the last tick accounted for
        while hops:
            nt = t + 1
            i = bisect_right(fs, nt) - 1
            if i >= 0 and nt < fe[i]:
                t = fe[i] - 1  # runs are merged: fe[i] is not fully stalled
                continue
            j = bisect_right(ss, nt) - 1
            if j >= 0 and nt < se[j]:
                if not self._slowed(pipe, nt):
                    hops -= 1
                t = nt
                continue
            # Free until the next window on this pipeline opens.
            opens = min(
                fs[i + 1] if i + 1 < len(fs) else NEVER,
                ss[j + 1] if j + 1 < len(ss) else NEVER,
            )
            if opens - nt >= hops:
                return nt + hops - 1
            hops -= opens - nt
            t = opens - 1
        return t

    def _slowed(self, pipe: int, tick: int) -> bool:
        """Whether a slowdown window open on ``pipe`` at ``tick`` withholds
        its service slot there."""
        return not all(
            _stall_services(e, tick)
            for e in self._slow[pipe]
            if e.start <= tick < e.end
        )

    def stalled_mask(self, tick: int) -> int:
        """Bitmask of the pipelines stalled at ``tick`` (those whose
        :meth:`next_free` is later): one bisect into the segment table,
        and a :func:`_stall_services` check only for the pipelines a
        slowdown window holds there."""
        i = bisect_right(self._mask_edges, tick) - 1
        if i < 0:
            return 0
        mask = self._mask_full[i]
        for pipe in self._mask_slow[i]:
            if self._slowed(pipe, tick):
                mask |= 1 << pipe
        return mask

    def next_free(self, pipe: int, tick: int) -> int:
        """The first tick ``>= tick`` on which ``pipe`` is not stalled:
        when its FIFOs pop and its front admits a packet."""
        first, last = self._stall_span[pipe]
        if tick < first or tick >= last:  # egress_tick's own fast path
            return tick
        return self.egress_tick(tick - 1, pipe, 1)

    def crossbar_down(self, pipe: int, tick: int) -> bool:
        """Whether the crossbar ports into ``pipe`` are down at ``tick``."""
        starts, ends = self._down[pipe]
        i = bisect_right(starts, tick) - 1
        return i >= 0 and tick < ends[i]

    def fifo_capacity_steps(
        self, pipe: int, stage: int, base: Optional[int]
    ) -> Tuple[List[int], List[Optional[int]]]:
        """The capacity of ``(pipe, stage)``'s ring buffers over time as
        a step function ``(ticks, capacities)``: from ``ticks[i]`` on it
        is ``capacities[i]`` (None = unbounded) — ``base``, shrunk by the
        windows open then the way :meth:`_apply_fifo_capacity` shrinks
        it."""
        edges = sorted(
            {e.start for e in self._shrinks} | {e.end for e in self._shrinks}
        )
        ticks: List[int] = [-NEVER]
        caps = [base]
        for at in edges:
            active = [e for e in self._shrinks if e.start <= at < e.end]
            cap = _shrunk(base, active, pipe, stage)
            if cap != caps[-1]:
                ticks.append(at)
                caps.append(cap)
        return ticks, caps

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
            fifo.capacity = _shrunk(self._base_capacity[key], shrinks, *key)

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
