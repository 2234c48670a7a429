"""Phase A for runs that can drop packets: the per-row sweep.

:class:`~repro.mp5.epochs.EpochStreamer` computes injection ticks and
pop chains in closed form, which holds only while nothing drops and
every pipeline runs every tick. A run under a fault schedule (one with
no ``phantom_channel`` window) or with a bounded ``fifo_capacity``
breaks both, so :class:`RowStreamer` replaces that closed form with a
recurrence resolved one row at a time, in injection order, over the
fault calendar (:class:`~repro.faults.FaultInjector`'s schedule-only
queries). A row's timeline depends only on earlier rows, on the
calendar and on the index map when it injects, so the scalar engines'
per-tick rules become per-row rules:

* **spray** — a tick admits arrivals in order, each at the next
  pipeline round-robin whose front is neither stalled nor taken this
  tick, at most ``k`` per tick; a row dropped at injection frees its
  slot for a later row of the same tick.
* **phantom push** — at injection (``phantom_latency`` ticks later)
  each plan's phantom goes to the ring buffer its entry pipeline owns
  at the destination FIFO. The buffer holds every earlier slot not yet
  removed: a popped slot leaves at its pop, a consumed one (its packet
  dropped) only when a pop scan — a tick its pipeline is not stalled —
  finds it at the buffer's head. A buffer at capacity (``fifo_capacity``,
  shrunk by open ``fifo_shrink`` windows) drops the row at injection
  (``phantom_fifo_full``); a delayed phantom is lost instead, and its
  packet drops when it reaches that stage (``no_phantom``).
* **steer** — moving into a plan stage whose destination's crossbar
  ports are down drops the row (``crossbar_down``); a drop consumes
  the row's phantoms there and further on at that tick, which unblocks
  their FIFO groups.
* **pop and transit** — a group pops its rows in id order, one per
  tick, only on ticks its pipeline is not stalled and never before an
  earlier member is popped or consumed; a packet advances one stage on
  each tick its pipeline is not stalled
  (:meth:`~repro.faults.FaultInjector.egress_tick`).

The epoch structure is the closed form's: a cut injects every row due
at or before it and commits every pop and drop there, so the real
:class:`~repro.mp5.sharding.ShardingRuntime` remaps from the scalar
engines' counters. The fault calendar adds cuts: every tick at which a
window opens or closes or an emergency remap falls due is run through
:meth:`~repro.faults.FaultInjector.begin_tick` after a cut just before
it, so :meth:`~repro.mp5.sharding.ShardingRuntime.emergency_remap`
reads the in-flight counters the fast engine reads at that tick's
start. Phase B, the stats and the DAG signature read the resulting
columns; ``drop_tick`` joins them.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from heapq import heappop, heappush
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..faults import FaultSchedule
from ..faults.injector import FaultInjector
from .epochs import _FAR, EpochSchedule, EpochStreamer, _grown

#: Drop reasons by code: at injection (0), or moving into a plan stage.
_REASONS = ("phantom_fifo_full", "crossbar_down", "no_phantom")


class RowStreamer(EpochStreamer):
    """The epoch sweep with the per-row recurrence over the fault
    calendar in place of the closed form (see the module docstring).
    Same feed/advance/finalize surface as :class:`EpochStreamer`."""

    def __init__(
        self, switch, H: Dict, E: Dict, R: Dict, max_ticks: Optional[int]
    ):
        super().__init__(switch, H, E, R, max_ticks)
        k = self.k
        injector = switch._faults or FaultInjector(FaultSchedule(), k)
        self.injector = injector
        # What begin_tick touches of a switch: an emergency remap moves
        # indexes in the sharder and counts itself in the stats.
        self._host = SimpleNamespace(
            sharder=self.sharder, stats=self.stats, obs=None, fifos={}
        )
        # The next tick at which begin_tick has work.
        self._event = injector.next_change(0)
        stages = [plan.stage for plan in self.vplans] + [self.depth]
        # Moves from injection to the first plan stage (the first is
        # made on the injection tick), then from each plan to the next
        # plan stage or to egress.
        self._first_hops = stages[0] - 1
        self._hops = [b - a for a, b in zip(stages, stages[1:])]
        self._states = [self.sharder.arrays[p.base] for p in self.vplans]
        # Plans whose in-flight counters completions release (the
        # flow-order array's never are, as in the scalar engines).
        self._tracked = [
            plan.has_index and not plan.is_flow for plan in self.vplans
        ]
        # Emergency remaps read those counters mid-epoch, so they are
        # kept per row, never settled at the boundary.
        self._settled = {}
        base = self.cfg.fifo_capacity
        self._caps = [
            [
                injector.fifo_capacity_steps(pipe, plan.stage, base)
                for pipe in range(k)
            ]
            for plan in self.vplans
        ]
        # Per bounded plan, per (destination, entry pipeline) ring buffer:
        # the removal ticks of its slots in push order (non-decreasing),
        # and the first tick its next slot may leave.
        self._bufs = [
            [deque() for _ in range(k * k)]
            if any(cap is not None for _t, caps in steps for cap in caps)
            else None
            for steps in self._caps
        ]
        self._purge_from = [[0] * (k * k) for _ in self.vplans]
        # Per plan and pipeline: the first tick its group may pop next.
        self._floor = [[0] * k for _ in self.vplans]
        # Per plan: (tick, row, popped) completions not yet committed.
        self._due: List[List[Tuple[int, int, bool]]] = [
            [] for _ in self.vplans
        ]
        self._last_done = -1  # latest egress or drop of an injected row
        self._phantoms = 0
        # Python-int mirrors of what the per-row recurrence reads, grown
        # once per feed batch: ceil(arrival) by row, and per plan its
        # access index by row (None for a plan with no index).
        self._arrive: List[int] = []
        self._acc: List[Optional[List[int]]] = [
            None if acc is None else [] for acc in self.acc_idx
        ]
        self._latency = self.cfg.phantom_latency
        self.drop_tick = np.empty(0, dtype=np.int64)
        self.drop_why = np.empty(0, dtype=np.int8)
        self.drop_plan = np.empty(0, dtype=np.int16)
        self.full_pushes = np.empty(0, dtype=np.int16)  # by row
        # The spray's state: its tick, injections and taken fronts there.
        self._t = 0
        self._used = 0
        self._taken = 0
        self._spray = 0

    # -- ingest ---------------------------------------------------------

    @property
    def buffered(self) -> int:
        """Packets fed but not yet injected: an injected row's egress or
        drop tick is settled with its timeline."""
        return self.n_fed - self.injected

    def ingest(self, arrival: np.ndarray) -> None:
        """Grow the columns and run the resolution stage over one sorted
        feed batch; injection ticks come from the sweep."""
        n = int(arrival.shape[0])
        if n == 0:
            return
        lo = self.n_fed
        hi = lo + n
        self._grow(hi)
        self.inj[lo:hi] = -1
        self.entry_pipe[lo:hi] = -1
        self.drop_tick = _grown(self.drop_tick, hi, fill=-1)
        self.drop_why = _grown(self.drop_why, hi, fill=-1)
        self.drop_plan = _grown(self.drop_plan, hi, fill=-1)
        self.full_pushes = _grown(self.full_pushes, hi, fill=0)
        self._arrive.extend(np.ceil(arrival).astype(np.int64).tolist())
        self.n_fed = hi
        self._resolve(lo, hi)
        for acc, mirror in zip(self.acc_idx, self._acc):
            if mirror is not None:
                mirror.extend(acc[lo:hi].tolist())

    # -- the recurrence ---------------------------------------------------

    def _slot(self, row: int) -> Tuple[int, int, int, int]:
        """Where the spray puts ``row`` from its current state: ``(tick,
        pipeline, injections, taken fronts)``, the last two as they
        stand at that tick before the row. Pure: a row due past the cut
        is asked again at the next one."""
        t, used, taken = self._t, self._used, self._taken
        arrive = self._arrive[row]
        if arrive > t:
            t, used, taken = arrive, 0, 0
        k = self.k
        every = (1 << k) - 1
        stalled = self.injector.stalled_mask
        while True:
            if used < k:
                free = ~(taken | stalled(t)) & every
                if free:
                    pipe = self._spray
                    while not free >> pipe & 1:
                        pipe = pipe + 1 if pipe + 1 < k else 0
                    return t, pipe, used, taken
                if not taken:  # every front stalled: skip to the first free
                    nf = self.injector.next_free
                    t = min(nf(pipe, t) for pipe in range(k))
                    continue
            t, used, taken = t + 1, 0, 0

    def _consume(self, pi: int, dest: int, entry: int, tick: int) -> None:
        """A dropped row's phantom at plan ``pi`` is consumed at
        ``tick``: its group may pop past it from then on, and a pop scan
        on ``dest`` removes its slot once it heads its ring buffer."""
        floor = self._floor[pi]
        if floor[dest] < tick:
            floor[dest] = tick
        bufs = self._bufs[pi]
        if bufs is not None:
            at = dest * self.k + entry
            purge = self._purge_from[pi]
            gone = self.injector.next_free(dest, max(tick, purge[at]))
            bufs[at].append(gone)
            purge[at] = gone

    def _drop(self, row: int, plan: int, tick: int, why: int) -> None:
        """``row`` drops at ``tick`` for reason ``why`` (a :data:`_REASONS`
        code) at plan ``plan``: at injection, or moving into its stage."""
        self.drop_tick[row] = tick
        self.drop_why[row] = why
        self.drop_plan[row] = plan
        if tick > self._last_done:
            self._last_done = tick

    def _inject_row(self, row: int, t0: int, entry: int) -> bool:
        """Inject ``row`` at tick ``t0`` into pipeline ``entry`` and
        resolve its whole timeline. False when it drops at injection,
        which frees its front for a later row of the same tick."""
        self.inj[row] = t0
        self.entry_pipe[row] = entry
        k = self.k
        nplans = self.nplans
        states = self._states
        dest_cols = self.dest
        dests = []
        for pi, acc in enumerate(self._acc):
            state = states[pi]
            if acc is None:
                dest = state.index_to_pipeline.item(0)
            else:
                idx = acc[row]
                state.access_counts[idx] += 1
                state.in_flight[idx] += 1
                state.touched.add(idx)
                dest = state.index_to_pipeline.item(idx)
            dest_cols[pi][row] = dest
            dests.append(dest)

        # Phantom pushes in plan order, ``phantom_latency`` ticks after
        # injection. With no latency the first full buffer drops the row
        # and the phantoms already pushed are consumed with it; a
        # delayed phantom that finds its buffer full is only lost, and
        # its packet drops when it finds no phantom to claim.
        latency = self._latency
        pushed_at = t0 + latency
        lost = 0  # plans whose phantom found its buffer full, as bits
        for pi, bufs in enumerate(self._bufs):
            if bufs is None:
                continue
            dest = dests[pi]
            ticks, caps = self._caps[pi][dest]
            cap = caps[bisect_right(ticks, pushed_at) - 1]
            if cap is None:
                continue
            buf = bufs[dest * k + entry]
            while buf and buf[0] < pushed_at:
                buf.popleft()
            if len(buf) >= cap:
                self.full_pushes[row] += 1
                if latency:
                    lost |= 1 << pi
                    continue
                self._phantoms += pi + 1
                for pj in range(pi):
                    self._consume(pj, dests[pj], entry, t0)
                for pj in range(nplans):
                    if self._tracked[pj]:
                        states[pj].in_flight[self._acc[pj][row]] -= 1
                self._drop(row, pi, t0, 0)
                return False
        self._phantoms += nplans

        injector = self.injector
        advance = injector.egress_tick
        next_free = injector.next_free
        down = injector.crossbar_down
        t = advance(t0, entry, self._first_hops)
        pipe = entry
        for pi in range(nplans):
            dest = dests[pi]
            if down(dest, t) or lost >> pi & 1:
                for pj in range(pi, nplans):
                    if not lost >> pj & 1:
                        self._consume(pj, dests[pj], entry, t)
                    if self._tracked[pj]:
                        heappush(self._due[pj], (t, row, False))
                self._drop(row, pi, t, 1 if down(dest, t) else 2)
                return True
            self.ins_tick[pi][row] = t
            floor = self._floor[pi]
            pop = next_free(dest, t if t > floor[dest] else floor[dest])
            floor[dest] = pop + 1
            self.pop_tick[pi][row] = pop
            heappush(self._due[pi], (pop, row, True))
            bufs = self._bufs[pi]
            if bufs is not None:
                at = dest * k + entry
                bufs[at].append(pop)
                self._purge_from[pi][at] = pop + 1
            t = advance(pop, dest, self._hops[pi])
            pipe = dest
        self.egr_tick[row] = t
        self.egr_pipe[row] = pipe
        if t > self._last_done:
            self._last_done = t
        if self.cut_limit is None or t <= self.cut_limit:
            self.egr_assigned += 1  # a row's egress is known at injection
            self.last_egress = max(self.last_egress, t)
        return True

    # -- the sweep ------------------------------------------------------

    def _process_cut(self, cut: int) -> bool:
        """Inject every row the spray places at or before ``cut`` and
        commit every pop and drop there: popped rows join their plan's
        :attr:`unserviced` list in (tick, row) order, and completions
        release the in-flight counters. True iff some plan queued a
        chunk."""
        k = self.k
        row, n = self.injected, self.n_fed
        while row < n:
            t, pipe, used, taken = self._slot(row)
            if t > cut:
                break
            if self._inject_row(row, t, pipe):
                taken |= 1 << pipe
            self._t, self._used, self._taken = t, used + 1, taken
            self._spray = pipe + 1 if pipe + 1 < k else 0
            row += 1
        self.injected = row

        queued = False
        for pi, due in enumerate(self._due):
            if not due or due[0][0] > cut:
                continue
            flight = self._states[pi].in_flight if self._tracked[pi] else None
            acc = self._acc[pi]
            rows, pops = [], []
            while due and due[0][0] <= cut:
                tick, r, popped = heappop(due)
                if flight is not None:
                    flight[acc[r]] -= 1
                if popped:
                    rows.append(r)
                    pops.append(tick)
            if rows:
                self.unserviced[pi].append(
                    (
                        np.array(rows, dtype=np.int64),
                        np.array(pops, dtype=np.int64),
                    )
                )
                queued = True
        self.executed_through = cut
        return queued

    def _cut(self) -> Tuple[Optional[int], int]:
        """The open epoch's boundary and the next cut: the boundary, or
        the tick before the next fault-calendar event, clamped to the
        last executable tick."""
        boundary = (
            (self._epoch_start + self.period) if self.remap_on else None
        )
        cut = min(_FAR if boundary is None else boundary, self._event - 1)
        if self.cut_limit is not None and self.cut_limit < cut:
            cut = self.cut_limit
        return boundary, cut

    def _closed(self, watermark: Optional[int]) -> bool:
        return watermark is not None and self._cut()[1] < watermark

    def _alive(self, tick: int) -> bool:
        """Whether the scalar run loop steps ``tick``: a packet fed is
        still to inject, or one injected egresses or drops at or after
        it."""
        return self.injected < self.n_fed or self._last_done >= tick

    def can_advance(self, watermark: Optional[int]) -> bool:
        if self.done:
            return False
        if self._phase == "decide":
            return self._alive(self._boundary)
        if self._phase == "event":
            return self._alive(self._event)
        return self._closed(watermark)

    def advance_epoch(
        self, watermark: Optional[int] = None, final: bool = False
    ) -> bool:
        """:meth:`EpochStreamer.advance_epoch` with the fault calendar's
        events as cuts of their own: after the cut before an event tick,
        the ``event`` phase runs that tick's
        :meth:`~repro.faults.FaultInjector.begin_tick` if the scalar
        loop is alive there."""
        while True:
            if self.done:
                return False
            if self._phase != "content":
                decide = self._phase == "decide"
                at = self._boundary if decide else self._event
                if self._alive(at):
                    if decide:
                        self._remap(at)
                    else:
                        self.injector.begin_tick(at, self._host)
                        self._event = self.injector.next_change(at + 1)
                    self._phase = "content"
                    continue
                if final:
                    self.done = True
                return False

            if not final and not self._closed(watermark):
                return False
            boundary, cut = self._cut()
            queued = self._process_cut(cut)
            if cut == boundary:
                self._phase = "decide"
                self._boundary = boundary
            elif cut == self._event - 1 and cut != self.cut_limit:
                self._phase = "event"
            else:
                self.done = True
                return queued
            if queued:
                return True

    def finalize(self) -> EpochSchedule:
        """:meth:`EpochStreamer.finalize` plus the drops: ``drop_tick``
        (-1 past a ``max_ticks`` cut too), the drop counters with the
        reasons in the order the run first met them, and the steers of
        the packets that found no phantom (the crossbar moved them, the
        insert failed)."""
        sched = super().finalize()
        n = self.n_fed
        limit = _FAR if self.cut_limit is None else self.cut_limit
        drop = self.drop_tick[:n]
        drop[drop > limit] = -1
        hit = np.flatnonzero(drop >= 0)
        why = self.drop_why[hit].astype(np.int64)
        plan = self.drop_plan[hit]
        # The pipeline each dropped packet was in, where it was headed
        # and the stage it was entering.
        src = self.entry_pipe[hit].copy()
        dst = src.copy()
        stage = np.zeros_like(src)
        for pi, vplan in enumerate(self.vplans):
            at = plan == pi
            stage[at] = vplan.stage
            dst[at] = self.dest[pi][hit[at]]
            if pi:
                src[at] = self.dest[pi - 1][hit[at]]
        # A tick drops at injection first, then while moving: pipelines
        # in order, higher stages first.
        within = np.where(
            why == 0, 0, 1 + src * self.depth + self.depth - stage
        )
        first_seen = dict.fromkeys(
            why[np.lexsort((within, drop[hit]))].tolist()
        )
        counts = np.bincount(why, minlength=len(_REASONS)).tolist()
        inj = self.inj[:n]
        pushed = (inj >= 0) & (inj + self._latency <= limit)
        drops = {
            "dropped": int(hit.shape[0]),
            # Full-buffer pushes: a delayed phantom's loss drops nothing
            # by itself.
            "drops_fifo_full": int(self.full_pushes[:n][pushed].sum()),
            "drops_crossbar": counts[1],
            "drops_no_phantom": counts[2],
            "drops_by_reason": {
                _REASONS[code]: counts[code] for code in first_seen
            },
        }
        # A packet that found no phantom was steered before it dropped.
        sched.steering += int(np.count_nonzero((why == 2) & (src != dst)))
        sched.drop_tick = drop
        sched.drops = drops
        sched.retired = self.egr_assigned + drops["dropped"]
        sched.last_retired = max(
            self.last_egress, int(drop[hit].max()) if hit.size else -1
        )
        sched.phantoms = self._phantoms
        return sched
