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

The epoch structure is the closed form's: each cut is one loop that
injects every row due at or before it, with its whole timeline, and
commits every pop and drop there. The fault calendar adds cuts: every
tick at which a window opens or closes or an emergency remap falls due
is run through :meth:`~repro.faults.FaultInjector.begin_tick` after a
cut just before it. Phase B, the stats and the DAG signature read the
resulting columns; ``drop_tick`` joins them.

The D2 counters live here, in Python, per indexed array: this epoch's
access counts (a dict by index), every index's in-flight count (a
list) and the indexes whose in-flight count changed since the last
publish (a set). A row counts its accesses at injection and releases
them when its pop or drop commits. Their only readers (no sink attaches
to a run that can drop) are the boundary remap — Figure 6 over them
(:meth:`~repro.mp5.sharding.ShardingRuntime.remap_counted`), or any
other ``remap_algorithm`` in the sharder over published ones — and,
through the sharder's arrays, where they are published, an event's
emergency remaps (just before ``begin_tick``, as the fast engine's
stand at that tick's start) and whoever reads the sharder after the
run (:meth:`finalize`).
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
        self._counters = {  # per array (see the module docstring)
            p.base: ({}, [0] * p.size, set()) for p in self.vplans
        }
        # Python-int mirrors of what the per-row recurrence reads, grown
        # once per feed batch: ceil(arrival) by row, and per plan its
        # access index by row (None for a plan with no index).
        self._arrive: List[int] = []
        self._acc: List[Optional[List[int]]] = [
            None if acc is None else [] for acc in self.acc_idx
        ]
        # Per plan: its access column and counters (None: no index), the
        # ones completions release (never the flow order's) and its map.
        self._counted = [
            None if acc is None else (acc, *self._counters[p.base])
            for acc, p in zip(self._acc, self.vplans)
        ]
        self._release = [
            None if p.is_flow else c for c, p in zip(self._counted, self.vplans)
        ]
        self._where = [
            self.sharder.arrays[p.base].index_to_pipeline.item
            for p in self.vplans
        ]
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
        self._bounded = [pi for pi, b in enumerate(self._bufs) if b is not None]
        self._purge_from = [[0] * (k * k) for _ in self.vplans]
        # Per plan and pipeline: the first tick its group may pop next.
        self._floor = [[0] * k for _ in self.vplans]
        # Per plan: (tick, row, popped) completions not yet committed.
        self._due: List[List[Tuple[int, int, bool]]] = [[] for _ in self.vplans]
        self._last_done = -1  # latest egress or drop of an injected row
        self._phantoms = 0
        self.drop_tick = np.empty(0, dtype=np.int64)
        self.drop_why = np.empty(0, dtype=np.int8)
        self.drop_plan = np.empty(0, dtype=np.int16)
        self.full_pushes = np.empty(0, dtype=np.int16)  # by row
        # The spray's state: its tick, injections and taken fronts there,
        # and the pipeline round-robin goes on from.
        self._t = self._used = self._taken = self._spray = 0

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

    # -- the counters -----------------------------------------------------

    def _publish(self) -> None:
        """Store the counters in the sharder's arrays: this epoch's access
        counts and the in-flight counts changed since the last publish."""
        for name, (counts, flight, changed) in self._counters.items():
            state = self.sharder.arrays[name]
            state.access_counts[list(counts)] = list(counts.values())
            state.touched.update(counts)
            state.in_flight[list(changed)] = [flight[i] for i in changed]
            changed.clear()

    def _end_epoch(self) -> int:
        """The boundary remap over the counters (see the module
        docstring); then the counts restart."""
        algorithm = self.cfg.remap_algorithm
        if algorithm == "heuristic":
            moved = sum(
                self.sharder.remap_counted(name, counts, flight)
                for name, (counts, flight, _c) in self._counters.items()
            )
        else:
            self._publish()
            moved = self.sharder.end_epoch(algorithm)
        for counts, _flight, _changed in self._counters.values():
            counts.clear()
        return moved

    # -- the recurrence ---------------------------------------------------

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

    # -- the sweep ------------------------------------------------------

    def _process_cut(self, cut: int) -> bool:
        """Inject every row the spray places at or before ``cut``, with
        its whole timeline, and commit every pop and drop there: popped
        rows join their plan's :attr:`unserviced` list in (tick, row)
        order. True iff some plan queued a chunk."""
        k = self.k
        every = (1 << k) - 1
        nplans = self.nplans
        injector = self.injector
        stalled, next_free = injector.stalled_mask, injector.next_free
        advance, down = injector.egress_tick, injector.crossbar_down
        consume, drop = self._consume, self._drop
        arrive, latency = self._arrive, self.cfg.phantom_latency
        release = self._release
        inj, entry_col, full_pushes = self.inj, self.entry_pipe, self.full_pushes
        egr_tick, egr_pipe = self.egr_tick, self.egr_pipe
        dues, bufs_all, caps_all = self._due, self._bufs, self._caps
        bounded, first_hops = self._bounded, self._first_hops
        resolve = list(zip(self._counted, self._where, self.dest))
        path = list(zip(
            range(nplans), self.ins_tick, self.pop_tick, self._floor, dues,
            bufs_all, self._purge_from, self._hops,
        ))
        limit = _FAR if self.cut_limit is None else self.cut_limit
        phantoms, assigned = self._phantoms, 0
        last_done, last_egress = self._last_done, self.last_egress
        t, used, taken, spray = self._t, self._used, self._taken, self._spray
        row, n = self.injected, self.n_fed
        while row < n:
            # The spray: the row's slot is the next pipeline round-robin
            # whose front is neither stalled nor taken, at most k a tick.
            # A row due past the cut leaves the state for the next cut.
            t0, u, tk = t, used, taken
            if arrive[row] > t0:
                t0, u, tk = arrive[row], 0, 0
            while True:
                if u < k:
                    free = ~(tk | stalled(t0)) & every
                    if free:
                        break
                    if not tk:  # every front stalled: skip to the first free
                        t0 = min(next_free(pipe, t0) for pipe in range(k))
                        continue
                t0, u, tk = t0 + 1, 0, 0
            if t0 > cut:
                break
            entry = spray
            while not free >> entry & 1:
                entry = entry + 1 if entry + 1 < k else 0
            spray = entry + 1 if entry + 1 < k else 0
            t, used, taken = t0, u + 1, tk
            inj[row] = t0
            entry_col[row] = entry

            # Resolution: count the access, read the map as it stands.
            dests = []
            for c, where, dest_col in resolve:
                if c is None:
                    dest = where(0)
                else:
                    acc, counts, flight, changed = c
                    idx = acc[row]
                    counts[idx] = counts.get(idx, 0) + 1
                    flight[idx] += 1
                    changed.add(idx)
                    dest = where(idx)
                dest_col[row] = dest
                dests.append(dest)

            # Phantom pushes in plan order, ``phantom_latency`` ticks after
            # injection. With no latency the first full buffer drops the
            # row and the phantoms already pushed are consumed with it; a
            # delayed phantom that finds its buffer full is only lost, and
            # its packet drops when it finds no phantom to claim.
            pushed_at = t0 + latency
            lost = full = 0  # plans whose phantom was lost (bits); full pushes
            refused = -1  # the plan whose full buffer drops the row
            for pi in bounded:
                dest = dests[pi]
                ticks, caps = caps_all[pi][dest]
                cap = caps[bisect_right(ticks, pushed_at) - 1]
                if cap is None:
                    continue
                buf = bufs_all[pi][dest * k + entry]
                while buf and buf[0] < pushed_at:
                    buf.popleft()
                if len(buf) >= cap:
                    full += 1
                    if not latency:
                        refused = pi
                        break
                    lost |= 1 << pi
            if full:
                full_pushes[row] = full
            if refused >= 0:  # the front stays free for a later row
                phantoms += refused + 1
                for pj in range(refused):
                    consume(pj, dests[pj], entry, t0)
                for acc, _counts, flight, _changed in filter(None, release):
                    flight[acc[row]] -= 1
                drop(row, refused, t0, 0)
                if t0 > last_done:
                    last_done = t0
                row += 1
                continue
            taken |= 1 << entry
            phantoms += nplans

            # The path: steer into each plan stage, pop, transit on.
            at = advance(t0, entry, first_hops)
            for pi, ins_col, pop_col, floor, due, bufs, purge, hop in path:
                dest = dests[pi]
                cut_off = down(dest, at)
                if cut_off or lost >> pi & 1:
                    for pj in range(pi, nplans):
                        if not lost >> pj & 1:
                            consume(pj, dests[pj], entry, at)
                        if release[pj] is not None:
                            heappush(dues[pj], (at, row, False))
                    drop(row, pi, at, 1 if cut_off else 2)
                    break
                ins_col[row] = at
                pop = next_free(dest, at if at > floor[dest] else floor[dest])
                floor[dest] = pop + 1
                pop_col[row] = pop
                heappush(due, (pop, row, True))
                if bufs is not None:
                    slot = dest * k + entry
                    bufs[slot].append(pop)
                    purge[slot] = pop + 1
                at = advance(pop, dest, hop)
            else:
                egr_tick[row] = at
                egr_pipe[row] = dests[-1] if dests else entry
                if at <= limit:  # a row's egress is known at injection
                    assigned += 1
                    if at > last_egress:
                        last_egress = at
            if at > last_done:
                last_done = at
            row += 1
        self._t, self._used, self._taken, self._spray = t, used, taken, spray
        self.injected, self._phantoms, self._last_done = row, phantoms, last_done
        self.egr_assigned += assigned
        self.last_egress = last_egress

        queued = False
        for c, due, unserviced in zip(release, dues, self.unserviced):
            rows, pops = [], []
            while due and due[0][0] <= cut:
                tick, r, popped = heappop(due)
                if c is not None:
                    acc, _counts, flight, changed = c
                    flight[acc[r]] -= 1
                    changed.add(acc[r])
                if popped:
                    rows.append(r)
                    pops.append(tick)
            if rows:
                rows, pops = np.array(rows, np.int64), np.array(pops, np.int64)
                unserviced.append((rows, pops))
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
                        self._publish()  # what its emergency remaps read
                        self.injector.begin_tick(at, self._host)
                        self.sharder.end_epoch("none")  # counts stay here
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
        self._publish()  # the sharder's counters as the run leaves them
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
        pushed = (inj >= 0) & (inj + self.cfg.phantom_latency <= limit)
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
