"""Observability for the vector engine, from the epoch schedule.

The scalar engines emit lifecycle events *while* simulating; the vector
engine (:mod:`repro.mp5.vector`) never visits individual ticks, so it
cannot. But its Phase A output — the :class:`~repro.mp5.epochs.EpochSchedule`
— already fixes the tick of every observable event as an int64 column:

* ``ingress`` / ``phantom_emit`` happen at the injection tick ``inj[r]``
  (phantoms are emitted at generation time even under
  ``phantom_latency``);
* ``steer`` / ``phantom_match`` happen when the data packet reaches the
  plan stage's FIFO, ``ins_tick[pi][r]``;
* ``fifo_pop`` / ``service`` happen at ``pop_tick[pi][r]`` (service only
  at stages that execute instructions — never the resolution stage,
  whose work runs at injection, and never the instruction-free
  flow-order stage);
* transit stages with instructions service a packet one stage per tick
  after injection (``inj + (u - 1)``) or after a pop
  (``pop[pi] + (u - stage[pi])``);
* ``egress`` happens at ``egr_tick[r]``; ``remap`` at the boundaries
  Phase A recorded in ``remap_records``;
* a ``fifo_pop``'s ``wait`` is ``pop - ins`` where ``0 <= ins <= pop``,
  else 0;
* a ``fifo_block`` episode opens at the first tick the group head's
  phantom blocks queued data: ``max(prev_pop + 1, suffix_min(ins))`` —
  data presence implies the head's phantom has been delivered (global
  injection order plus the ``phantom_latency`` admission bound), so the
  blocked window never depends on the latency knob.

A stored tick column reads -1 for an event that never executes (see
:class:`~repro.mp5.epochs.EpochSchedule`), so every consumer here
tests ``t >= 0``; only the derived transit-service and blocking ticks
are bounded by the run's last tick. The engine's ``_replay_sinks``
feeds the attached sinks from those columns, on two paths that share
nothing but the schedule:

* **Windows, for the registry and the monitor** (:func:`feed_window_sinks`).
  Everything a :class:`~repro.obs.metrics.MetricsRegistry` and an
  :class:`~repro.obs.monitor.InvariantMonitor` observe is a function of
  window boundaries (the union of both registries' roll ticks). Each
  tick column is bucketed once by the boundary that closes its ticks
  (:func:`_columns`, which also holds the ``t >= 0`` masks): every cumulative sampler, ``queue_depth.p*.s*``
  lane level and the monitor's phantom-wait sum and pop count is one
  ``bincount`` per column. The histogram row rule
  (:func:`~repro.obs.metrics.window_rows`) summarizes each ``latency``
  window, cut from the scalar engines' egress order and sorted as
  ``flush`` sorts it. Each registry then gets all its rows in one
  block append per series; only the monitor's violations and detector
  step still go window by window, and the detector reads the row at its
  tick. The invariants run as whole-array predicates over *every*
  executed event tick (see :func:`_schedule_violations`) and raise
  through the monitor's own violation helpers.
* **Column blocks, for the recorder** (:func:`feed_recorder`). Each
  event type's rows are cut from the columns whole — one
  :meth:`~repro.obs.trace.TraceRecorder.extend` per type and plan — and
  the recorder puts them in the within-tick order of
  :mod:`repro.obs.events` when its events are read.

The resulting trace, alert stream, and metrics series are
engine-independent, byte for byte — the three-way differential contract
of ``tests/test_vector_obs.py``, with the scalar engines (whose emitter
surface is untouched) as the oracle.
"""

from __future__ import annotations

from functools import partial, reduce
from operator import add
from types import SimpleNamespace
from typing import Dict, List, Tuple

import numpy as np

from ..errors import ConfigError
from .alerts import DETECTOR_SERIES
from .events import (
    EVENT_EGRESS,
    EVENT_FIFO_BLOCK,
    EVENT_FIFO_POP,
    EVENT_INGRESS,
    EVENT_PHANTOM_EMIT,
    EVENT_PHANTOM_MATCH,
    EVENT_REMAP,
    EVENT_SERVICE,
    EVENT_STEER,
    KINDS,
    NUM_PHASES,
)
from .metrics import window_rows

_FAR = 1 << 62

# Same-tick violations are raised in the within-tick order of the event
# each predicate stands for; the end-of-tick checks come after them all.
_P_PHANTOM_MATCH = KINDS[EVENT_PHANTOM_MATCH].phase
_P_EGRESS = KINDS[EVENT_EGRESS].phase
_P_FIFO_POP = KINDS[EVENT_FIFO_POP].phase
_P_END_TICK = NUM_PHASES


# ---------------------------------------------------------------------------
# Window sinks: registry samplers, histograms, monitor
# ---------------------------------------------------------------------------


class _SwitchView:
    """What the monitor dereferences when fed from a schedule.

    The vector engine has no live FIFOs, shard-map snapshots or live
    counter to walk at a tick boundary, so the monitor's switch-walking
    passes (``_check_fifos``, ``_check_shard_maps``) do not run here at
    all; :func:`_schedule_violations` checks the same invariants as
    predicates over the schedule's tick columns instead. What remains
    is the end-of-run cross-check of the engine's own bookkeeping
    against those columns: ``_live`` is the streamer's injected-minus-
    egress-assigned count and ``stats`` the reconstructed
    :class:`~repro.mp5.stats.SwitchStats`, both of which
    ``_check_conservation`` / ``end_run`` compare with the counts
    derived from ``inj`` / ``egr_tick``."""

    __slots__ = ("_live", "stats", "_faults")

    def __init__(self, switch, schedule):
        self._live = schedule.injected - schedule.egr_assigned
        self.stats = switch.stats
        self._faults = None


def _roll_ticks(registry, ticks: int) -> range:
    """The ticks at which a per-tick ``maybe_roll`` over ``range(ticks)``
    would close a window (the next roll is always a window multiple)."""
    return range(registry._next_roll, ticks, registry.window)


def _columns(sched, bounds) -> SimpleNamespace:
    """The schedule as every window consumer reads it, derived once per
    run: the ``t >= 0`` mask of each stored tick column, and the index
    of the boundary that closes each executed tick (the first bound
    ``>= t``: rolls happen after the tick's events)."""
    bucket = partial(np.searchsorted, bounds)
    matched = [ins >= 0 for ins in sched.ins_tick]
    popped = [pop >= 0 for pop in sched.pop_tick]
    egressed = sched.egr_tick >= 0

    def so_far(buckets, weights=None):
        """Events (or their weights) up to each boundary."""
        counts = np.bincount(buckets, weights, minlength=bounds.shape[0])
        return np.cumsum(counts).astype(np.int64)

    return SimpleNamespace(
        bucket=bucket, so_far=so_far, matched=matched, popped=popped,
        egressed=egressed,
        ins_b=[bucket(t[m]) for t, m in zip(sched.ins_tick, matched)],
        pop_b=[bucket(t[m]) for t, m in zip(sched.pop_tick, popped)],
        injected_by=so_far(bucket(sched.inj[: sched.injected])),
        egressed_by=so_far(bucket(sched.egr_tick[egressed])),
    )


def _sampler_table(vplans, sched, cols, wasted_masks, columns, nb):
    """Every sampler's value at every boundary, one row per boundary."""
    col_of = {name: col for col, (name, _cum) in enumerate(columns)}
    table = np.zeros((nb, len(columns)), dtype=np.int64)
    k = sched.k
    table[:, col_of["egressed"]] = cols.egressed_by
    table[:, col_of["phantoms_generated"]] = len(vplans) * cols.injected_by
    if sched.remap_records:
        ticks, moves = np.array(sched.remap_records, dtype=np.int64).T
        moves = cols.so_far(cols.bucket(ticks), moves.astype(np.float64))
        table[:, col_of["remap_moves"]] = moves
        table[:, col_of["sharder_moves"]] = moves
    lane_cols = []
    for pi, plan in enumerate(vplans):
        dest = sched.dest[pi]
        matched, popped = cols.matched[pi], cols.popped[pi]
        ins_b, pop_b = cols.ins_b[pi], cols.pop_b[pi]
        prev = sched.entry_pipe if pi == 0 else sched.dest[pi - 1]
        table[:, col_of["steering_moves"]] += cols.so_far(
            ins_b[(dest != prev)[matched]]
        )
        mask = wasted_masks[pi] if wasted_masks is not None else None
        if mask is not None:
            table[:, col_of["wasted_slots"]] += cols.so_far(
                pop_b[mask[: popped.shape[0]][popped]]
            )
        # Lane levels: matches so far minus pops so far, per pipeline.
        level = np.bincount(
            ins_b * k + dest[matched], minlength=nb * k
        ) - np.bincount(pop_b * k + dest[popped], minlength=nb * k)
        level = np.cumsum(level.reshape(nb, k), axis=0)
        for pipe in range(k):
            col = col_of.get(f"queue_depth.p{pipe}.s{plan.stage}")
            if col is not None:
                table[:, col] = level[:, pipe]
                lane_cols.append(col)
    if lane_cols:
        lanes = table[:, lane_cols]
        table[:, col_of["queue_depth_max"]] = lanes.max(axis=1)
        table[:, col_of["queue_depth_total"]] = lanes.sum(axis=1)
    return table


def _wait_so_far(sched, cols):
    """The monitor's phantom-wait sum and pop count at every boundary.
    Each executed pop on every plan counts once and adds its FIFO wait:
    pop tick minus match tick, or 0 with no earlier match, as the scalar
    monitor's ``fifo_pop`` measures it."""
    waits = []
    for pi, pop in enumerate(sched.pop_tick):
        popped = cols.popped[pi]
        pop = pop[popped]
        ins = sched.ins_tick[pi][popped]
        waits.append(np.where((ins >= 0) & (ins <= pop), pop - ins, 0))
    pop_b = np.concatenate([np.zeros(0, np.int64)] + cols.pop_b)
    waits = np.concatenate([np.zeros(0, np.int64)] + waits)
    return cols.so_far(pop_b, waits.astype(np.float64)), cols.so_far(pop_b)


# ---------------------------------------------------------------------------
# Invariants as whole-array predicates
# ---------------------------------------------------------------------------


class _Violations:
    """What the predicates found, to be raised in the scalar monitor's
    order: by tick, then by the phase of the tick the scalar check sits
    in, then by packet."""

    def __init__(self):
        self.found: List[Tuple] = []
        self.predicates = 0  # vectorized tests evaluated

    def add(self, tick, priority, pkt, raise_fn, *args) -> None:
        self.found.append(
            (int(tick), priority, int(pkt), len(self.found), raise_fn, args)
        )


def _check_pairing(monitor, vplans, sched, cols, drained: bool, out) -> None:
    """**phantom_pairing** — on every plan a match never precedes the
    injection that emitted its phantom; every pop and every egress is
    preceded by the packet's match on every plan (a match that comes
    after its pop pairs nothing, which then shows at egress); and a
    drained run leaves no injected packet with an unpaired phantom."""
    egr = sched.egr_tick
    egressed = cols.egressed
    n = sched.inj.shape[0]
    injected = np.arange(n) < sched.injected
    emitted_at = np.where(injected, sched.inj, _FAR)
    paired_by_egress = np.zeros(n, dtype=np.int64)
    paired = np.zeros(n, dtype=np.int64)
    for pi, plan in enumerate(vplans):
        ins = sched.ins_tick[pi]
        pop = sched.pop_tick[pi]
        matched = cols.matched[pi]
        out.predicates += 1
        early = matched & (ins < emitted_at)
        for r in np.nonzero(early)[0].tolist():
            out.add(
                ins[r], _P_PHANTOM_MATCH, r, monitor._match_without_emit,
                r, int(sched.dest[pi][r]), plan.stage,
            )
        pairs = matched & ~early & ~(cols.popped[pi] & (pop < ins))
        paired += pairs
        paired_by_egress += pairs & (ins <= egr)
    emitted = np.where(injected, len(vplans), 0)
    out.predicates += 1
    short = egressed & (emitted > paired_by_egress)
    for r in np.nonzero(short)[0].tolist():
        out.add(
            egr[r], _P_EGRESS, r, monitor._egress_outstanding,
            r, int(emitted[r] - paired_by_egress[r]),
        )
    if drained:
        out.predicates += 1
        dangling = injected & ~egressed & (emitted > paired)
        # end_run reports these from the monitor's own table.
        for r in np.nonzero(dangling)[0].tolist():
            monitor._outstanding[r] = int(emitted[r] - paired[r])


def _check_lanes(monitor, plan, sched, cols, pi: int, ticks: int, out):
    """**fifo_sanity** — per lane ``(pipe, stage)`` of plan ``pi``,
    matches so far cover pops so far at every pop (the j-th match is no
    later than the j-th pop), and no tick pops twice. One composite
    ``(lane, tick)`` key sorts each side."""
    stage = plan.stage
    dest = sched.dest[pi]
    ins = sched.ins_tick[pi]
    pop = sched.pop_tick[pi]
    matched, popped = cols.matched[pi], cols.popped[pi]
    span = ticks + 1
    match_keys = np.sort(dest[matched] * span + ins[matched])
    pop_keys = np.sort(dest[popped] * span + pop[popped])
    lane = pop_keys // span
    lane_starts = np.arange(sched.k + 1) * span
    rank = np.arange(pop_keys.shape[0]) - np.searchsorted(
        pop_keys, lane_starts
    )[lane]
    pos = np.searchsorted(match_keys, lane_starts)[lane] + rank
    out.predicates += 1
    covered = pos < match_keys.shape[0]
    covered[covered] = match_keys[pos[covered]] <= pop_keys[covered]
    ninj = sched.injected
    for j in np.nonzero(~covered)[0].tolist():
        pipe, tick = divmod(int(pop_keys[j]), span)
        in_lane = dest == pipe
        pops = int(rank[j]) + 1
        data = int(np.count_nonzero(in_lane & matched & (ins <= tick))) - pops
        # Phantoms are emitted at injection; no ring exists to count.
        total = int(
            np.count_nonzero(in_lane[:ninj] & (sched.inj[:ninj] <= tick))
        ) - pops
        out.add(
            tick, _P_END_TICK, -1, monitor._fifo_counters,
            (pipe, stage), total, data, total,
        )
    out.predicates += 1
    if (pop_keys[1:] == pop_keys[:-1]).any():
        keys, counts = np.unique(pop_keys, return_counts=True)
        twice = counts > 1
        for key, count in zip(keys[twice].tolist(), counts[twice].tolist()):
            pipe, tick = divmod(key, span)
            out.add(
                tick, _P_END_TICK, -1, monitor._lane_pop_rate,
                (pipe, stage), count,
            )


def _check_indices(monitor, plan, sched, cols, pi: int, remap_ticks, out):
    """**c1_order** — per ``(stage, array, index)`` of plan ``pi``,
    packet ids ascend in pop order (``(tick, pkt)``, the scalar event
    order): over the popped rows of an index, pop ticks never fall as
    ids rise. **shard_exclusivity** — when consecutive accesses of one
    index land on different pipelines, the earlier one was popped
    before a remap boundary that the later one was injected after."""
    dest = sched.dest[pi]
    pop = sched.pop_tick[pi]
    popped = cols.popped[pi]
    idx = sched.acc_idx[pi][: sched.injected]
    # Stable, so (index, pkt) order; 16-bit keys take the radix path.
    order = np.argsort(
        idx.astype(np.int16) if plan.size <= 1 << 15 else idx, kind="stable"
    )
    idx_s = idx[order]

    out.predicates += 1
    was_popped = popped[order]
    rows_p = order[was_popped]
    idx_p = idx_s[was_popped]
    pop_p = pop[rows_p]
    fell = (idx_p[1:] == idx_p[:-1]) & (pop_p[1:] < pop_p[:-1])
    # Not np.unique: on a clean run it would import numpy.ma for nothing.
    for index in sorted(set(idx_p[1:][fell].tolist())):
        members = rows_p[idx_p == index]
        key = (plan.stage, plan.label, index)
        high = -1
        for r in members[np.lexsort((members, pop[members]))].tolist():
            if r < high:
                out.add(
                    pop[r], _P_FIFO_POP, r, monitor._c1_violation,
                    r, high, key, int(dest[r]), plan.stage,
                )
            else:
                high = r

    out.predicates += 1
    dest_s = dest[order]
    moved = np.nonzero(
        (idx_s[1:] == idx_s[:-1]) & (dest_s[1:] != dest_s[:-1])
    )[0]
    if moved.size:
        before = order[moved]
        after = order[moved + 1]
        idle_from = np.where(popped[before], pop[before], _FAR)
        safe = np.searchsorted(
            remap_ticks, idle_from, side="left"
        ) < np.searchsorted(remap_ticks, sched.inj[after], side="left")
        for j in np.nonzero(~safe)[0].tolist():
            a, b = int(before[j]), int(after[j])
            tick = int(sched.inj[b])
            members = order[idx_s == idx[b]]
            in_flight = int(np.count_nonzero(
                (sched.inj[members] <= tick)
                & ~(popped[members] & (pop[members] < tick))
            ))
            out.add(
                tick, _P_END_TICK, b, monitor._moved_in_flight,
                plan.base, int(idx[b]), int(dest[a]), int(dest[b]), in_flight,
            )


def _check_in_flight(monitor, cols, bounds, ticks: int, out) -> None:
    """**conservation** — injected >= egressed at every boundary. (The
    cross-check of the engine's own counters against the columns runs
    at end of run, see :class:`_SwitchView`.)"""
    injected, egressed = cols.injected_by, cols.egressed_by
    out.predicates += 1
    for j in np.nonzero(egressed > injected)[0].tolist():
        out.add(
            min(int(bounds[j]), ticks - 1), _P_END_TICK, -1,
            monitor._negative_in_flight,
            int(injected[j]), int(egressed[j]), 0,
        )


def _schedule_violations(monitor, vplans, sched, cols, bounds, ticks, drained):
    """Run every invariant over every executed event tick of the
    schedule; returns the :class:`_Violations`, sorted for raising.
    Each predicate is one vectorized test; the per-row loops behind
    them only turn for a schedule that fails one.

    ``lossless_delivery`` has nothing to check (the vector envelope
    cannot drop), and the ring-buffer bookkeeping of ``_check_fifos``
    plus the range/pinned checks of ``_check_shard_maps`` inspect
    objects only the scalar engines populate."""
    out = _Violations()
    remap_ticks = np.array(
        [tick for tick, _moved in sched.remap_records], dtype=np.int64
    )
    _check_pairing(monitor, vplans, sched, cols, drained, out)
    for pi, plan in enumerate(vplans):
        _check_lanes(monitor, plan, sched, cols, pi, ticks, out)
        if plan.has_index and not plan.multi:
            # Array-level accesses are exempt: C1 and the in-flight rule
            # apply to the per-index states the paper shards.
            _check_indices(monitor, plan, sched, cols, pi, remap_ticks, out)
    _check_in_flight(monitor, cols, bounds, ticks, out)
    out.found.sort()
    return out


def feed_window_sinks(
    switch, schedule, wasted_masks, drained: bool, metrics=None, monitor=None
) -> Dict[str, int]:
    """Feed a registry and/or a monitor the finished run. Returns
    ``{"windows", "predicates"}`` for the profiler.

    Each registry gets all its window rows in one block append, built
    from the columns; what stays per window is the monitor's, in the
    scalar run loop's order: the window's violations, then the
    detector step. After the last tick come ``monitor.end_run`` and
    its end-of-run checks. A run that never stepped (empty trace, or
    ``max_ticks <= 0``) has one boundary, at tick 0: the sinks see
    registration and the final roll, like a scalar run.
    """
    stats = switch.stats
    ticks = stats.ticks
    vplans = switch._vplans
    # The scalar engines' own sampler schema, name for name and in
    # order. Sinks on a run that can drop (faults, bounded FIFOs) put
    # it on the fast engine (``drop_fallback_reason``), so the drop
    # columns stay zero here.
    columns = [(name, cum) for name, cum, _read in switch._metric_sources()]
    # Samplers that read ``row``: the list that holds the last
    # boundary's values once the window rows are appended.
    row = [0] * len(columns)
    readers = {
        name: (lambda c=col: row[c])
        for col, (name, _cum) in enumerate(columns)
    }
    user_rolls = mon_rolls = []
    if metrics is not None:
        for name, cumulative in columns:
            metrics.add_sampler(name, readers[name], cumulative=cumulative)
        user_rolls = _roll_ticks(metrics, ticks)
    if monitor is not None:
        if monitor._switch is not None:
            raise ConfigError(
                "an InvariantMonitor tracks one run; construct a fresh "
                "monitor per switch"
            )
        view = monitor._switch = _SwitchView(switch, schedule)
        monitor._register_series(readers)
        mon_rolls = _roll_ticks(monitor.registry, ticks)
    # In-run roll ticks of either registry, then the end of the run.
    bounds = np.array(
        sorted(set(user_rolls) | set(mon_rolls)) + [ticks], dtype=np.int64
    )
    cols = _columns(schedule, bounds)
    table = _sampler_table(
        vplans, schedule, cols, wasted_masks, columns, bounds.shape[0]
    )
    row[:] = table[-1].tolist()  # what the samplers read from now on
    by_bound = dict(zip(readers, table.T))

    def windows_of(rolls, names):
        """A registry's windows within ``bounds`` — its roll ticks, then
        the end of the run: their indices, ticks and the rows of the
        series ``names``."""
        at = np.append(np.searchsorted(bounds, rolls), bounds.shape[0] - 1)
        samples = {name: by_bound[name][at].tolist() for name in names}
        return at, bounds[at].tolist(), samples

    if metrics is not None:
        wins, user_ticks, samples = windows_of(user_rolls, readers)
        # The reconstructed stats hold every latency (typed like its
        # arrival) in the scalar engines' egress order, (tick,
        # pipeline): the running total folds in that order.
        lat = stats.latencies
        cuts = [0] + cols.egressed_by[wins].tolist()
        hist = metrics.histogram("latency")
        hist.total_count += len(lat)
        hist.total_sum = reduce(add, lat, hist.total_sum)
        metrics.append_windows(
            user_ticks, samples, {"latency": window_rows(lat, cuts)}
        )
    predicates = 0
    if monitor is not None:
        wait_sum, wait_count = _wait_so_far(schedule, cols)
        by_bound["phantom_wait_sum"] = wait_sum
        by_bound["phantom_wait_count"] = wait_count
        monitor.waits.sum = int(wait_sum[-1])
        monitor.waits.count = int(wait_count[-1])
        _wins, mon_ticks, samples = windows_of(mon_rolls, DETECTOR_SERIES)
        monitor.registry.append_windows(mon_ticks, samples)
        violations = _schedule_violations(
            monitor, vplans, schedule, cols, bounds, ticks, drained
        )
        found, predicates = violations.found, violations.predicates
        monitor.injected = schedule.injected
        monitor.egressed = int(np.count_nonzero(cols.egressed))
        raised = 0
        for tick in mon_ticks:
            while raised < len(found) and found[raised][0] <= tick:
                at, _prio, _pkt, _seq, raise_fn, args = found[raised]
                raise_fn(at, *args)
                raised += 1
            if tick < ticks:
                monitor.detect(tick)
        if ticks > 0:
            monitor._check_conservation(ticks - 1, view)
        monitor.end_run(ticks, view, drained)
    return {"windows": bounds.shape[0], "predicates": predicates}


# ---------------------------------------------------------------------------
# Column blocks, for the recorder
# ---------------------------------------------------------------------------


def _block_episodes(recorder, schedule, pi: int, stage: int, last_exec: int):
    """Plan ``pi``'s head-of-line blocking episodes, per FIFO group
    (pipeline lane): the head's pop waits until ``max(prev_pop + 1, its
    insert tick)``; the episode opens at the first tick queued data
    coexists with the head's still-absent data — the suffix-minimum of
    later members' insert ticks, clamped by the pop cadence. The final
    head of a cut run opens one too if that tick executed. Appends the
    ``fifo_block`` rows; returns every row's episode length (-1 where
    its pop ends none)."""
    blocked = np.full(schedule.pop_tick[pi].shape[0], -1, dtype=np.int64)
    for pipe, members in enumerate(schedule.lanes[pi]):
        ins = schedule.ins_tick[pi][members]
        ins = np.where(ins >= 0, ins, _FAR)
        pop = schedule.pop_tick[pi][members]
        # min over strictly-later members' insert ticks
        later = np.append(np.minimum.accumulate(ins[::-1])[::-1][1:], _FAR)
        cut = np.flatnonzero(pop < 0)
        heads = int(cut[0]) if cut.size else pop.shape[0]
        # Every popped head, and the final head of a cut run.
        span = min(heads + 1, pop.shape[0])
        prev = np.concatenate(([-1], pop[: span - 1]))  # the previous pop
        opens = np.maximum(prev + 1, later[:span])
        popped = opens[:heads] < pop[:heads]
        ticks = opens[:heads][popped]
        blocked[members[:heads][popped]] = pop[:heads][popped] - ticks
        # The final head's pop would have landed after both its insert
        # and the previous pop, but the run was cut.
        if heads < span and opens[heads] <= last_exec and opens[heads] < max(
            ins[heads], prev[heads] + 1
        ):
            ticks = np.append(ticks, opens[heads])
        recorder.extend(EVENT_FIFO_BLOCK, ticks, pipe, stage)
    return blocked


def feed_recorder(recorder, switch, schedule) -> None:
    """Append the run's events to ``recorder`` as column blocks, straight
    from the schedule's tick columns (``t >= 0`` masks; services derived
    one stage per tick are bounded by the last executed tick). The
    recorder puts them in the within-tick order when it builds."""
    last_exec = switch.stats.ticks - 1
    ninj = schedule.injected
    inj = schedule.inj[:ninj]
    rows = np.arange(ninj, dtype=np.int64)
    entry = schedule.entry_pipe[:ninj]
    add = recorder.extend

    def services(ticks, pkts, pipes, stage):
        ran = ticks <= last_exec
        add(EVENT_SERVICE, ticks[ran], pkts[ran], pipes[ran], stage)

    # Injection tick: ingress, one phantom per plan, and the services of
    # instruction-bearing stateless stages before the first plan stage.
    add(EVENT_INGRESS, inj, rows, entry, 0, switch._port[:ninj],
        switch._flow[:ninj])
    for pi, plan in enumerate(switch._vplans):
        index = plan.has_index and not plan.multi
        add(EVENT_PHANTOM_EMIT, inj, rows, schedule.dest[pi][:ninj],
            plan.stage, plan.label, schedule.acc_idx[pi][:ninj] if index else None)
    for u in switch._transit_after_inject:
        services(inj + (u - 1), rows, entry, u)

    # Per-plan FIFO lifecycle: steer+match at insert, pop (+service) at
    # the pop-chain tick, post-plan transit services one stage per tick.
    for pi, plan in enumerate(switch._vplans):
        stage = plan.stage
        dest = schedule.dest[pi][:ninj]
        prev = entry if pi == 0 else schedule.dest[pi - 1][:ninj]
        ins = schedule.ins_tick[pi][:ninj]
        at = ins >= 0
        add(EVENT_STEER, ins[at], rows[at], dest[at], stage, prev[at])
        add(EVENT_PHANTOM_MATCH, ins[at], rows[at], dest[at], stage)
        blocked = _block_episodes(recorder, schedule, pi, stage, last_exec)
        pop = schedule.pop_tick[pi][:ninj]
        at = pop >= 0
        tick, pkt, pipe, ins = pop[at], rows[at], dest[at], ins[at]
        wait = np.where((ins >= 0) & (ins <= tick), tick - ins, 0)
        add(EVENT_FIFO_POP, tick, pkt, pipe, stage, wait, blocked[:ninj][at])
        if switch._stage_instrs[stage]:
            add(EVENT_SERVICE, tick, pkt, pipe, stage)
        for u in switch._transit_after[pi]:
            services(tick + (u - stage), pkt, pipe, u)

    # Egress (every row whose ``egr_tick`` executes, as the window sinks
    # count it; latency typed like its arrival) and remap boundaries.
    done = np.flatnonzero(schedule.egr_tick >= 0)
    egr = schedule.egr_tick[done]
    arrival = switch.stats.arrival_ticks
    add(EVENT_EGRESS, egr, done,
        [t - arrival[r] for t, r in zip(egr.tolist(), done.tolist())])
    remaps = np.array(schedule.remap_records, dtype=np.int64).reshape(-1, 2)
    add(EVENT_REMAP, remaps[:, 0], remaps[:, 1])
