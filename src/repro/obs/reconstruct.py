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
* a ``fifo_block`` episode opens at the first tick the group head's
  phantom blocks queued data: ``max(prev_pop + 1, suffix_min(ins))`` —
  data presence implies the head's phantom has been delivered (global
  injection order plus the ``phantom_latency`` admission bound), so the
  blocked window never depends on the latency knob.

:func:`replay_observability` feeds the attached sinks from those
columns, on two paths that share nothing but the schedule:

* **Windows, for the registry and the monitor** (:func:`feed_window_sinks`).
  Everything a :class:`~repro.obs.metrics.MetricsRegistry` and an
  :class:`~repro.obs.monitor.InvariantMonitor` observe is a function of
  window boundaries, so the columns are bucketed by the union of both
  registries' roll ticks: every cumulative sampler and every
  ``queue_depth.p*.s*`` lane level comes out of one ``searchsorted`` +
  ``bincount`` per column, the ``latency`` / ``phantom_wait``
  histograms get their observations one window slice at a time
  (latencies in the scalar engines' egress order, so float totals fold
  identically), and the registries' own ``roll`` and the monitor's own
  detector step run once per boundary. The invariants run
  as whole-array predicates over *every* executed event tick (see
  :func:`_schedule_violations`) and raise through the monitor's own
  violation helpers.
* **Events, for the recorder** (:func:`synthesize_events`). A trace is
  per-event by nature, so a :class:`~repro.obs.trace.TraceRecorder`
  still gets the synthesized stream, sorted into the scalar engines'
  per-tick phase order and dispatched through its emitters (so wait /
  blocked derivations are the recorder's own).

The resulting trace ``canonical_form``, alert stream, and metrics series
are engine-independent — the three-way differential contract of
``tests/test_vector_obs.py``, with the scalar engines (whose emitter
surface is untouched) as the oracle.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError

_FAR = 1 << 62

# Within-tick dispatch priorities, mirroring the scalar _step phase
# order (inject -> move/steer/match/egress -> pop -> service -> remap).
# The priority doubles as the event kind in the synthesized tuples, and
# orders same-tick violations the array predicates raise.
_P_INGRESS = 0
_P_PHANTOM_EMIT = 1
_P_STEER = 2
_P_PHANTOM_MATCH = 3
_P_EGRESS = 4
_P_FIFO_BLOCK = 5
_P_FIFO_POP = 6
_P_SERVICE = 7
_P_REMAP = 8
_P_END_TICK = 9


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
        self._live = (
            schedule.injected - schedule.egr_assigned
            if schedule is not None
            else 0
        )
        self.stats = switch.stats
        self._faults = None


def _register_sources(registry, columns, row: List[int]) -> None:
    """Samplers that read ``row``: the list the window loop overwrites
    in place with each boundary's values before the registries roll."""
    for col, (name, cumulative) in enumerate(columns):
        registry.add_sampler(
            name, (lambda r=row, c=col: r[c]), cumulative=cumulative
        )


def _roll_ticks(registry, ticks: int) -> List[int]:
    """The ticks at which a per-tick ``maybe_roll`` over ``range(ticks)``
    would close a window."""
    out = []
    tick = registry._next_roll
    while tick < ticks:
        out.append(tick)
        tick = (tick // registry.window + 1) * registry.window
    return out


class _Executed:
    """The schedule's event columns with their executed-tick masks: an
    event exists iff its tick lies in ``[0, last_exec]`` (a ``max_ticks``
    cut leaves later ticks scheduled but never run)."""

    def __init__(self, switch, schedule, last_exec: int):
        self.schedule = schedule
        self.vplans = switch._vplans
        self.k = switch.config.num_pipelines
        self.last_exec = last_exec
        self.ninj = schedule.injected
        self.inj = schedule.inj[: self.ninj]
        egr = schedule.egr_tick
        self.egr_ok = (egr >= 0) & (egr <= last_exec)
        self.match_ok = [
            (t >= 0) & (t <= last_exec) for t in schedule.ins_tick
        ]
        self.pop_ok = [(t >= 0) & (t <= last_exec) for t in schedule.pop_tick]


def _sampler_table(run: _Executed, wasted_masks, columns, bounds):
    """Every sampler's value at every boundary, as one row of Python
    ints per boundary (an event at tick ``t`` counts at boundary ``b``
    iff ``t <= b``: rolls happen after the tick's events)."""
    nb = bounds.shape[0]
    col_of = {name: col for col, (name, _cum) in enumerate(columns)}
    table = np.zeros((nb, len(columns)), dtype=np.int64)
    sched = run.schedule
    k = run.k

    def bucket(ticks):
        return np.searchsorted(bounds, ticks, side="left")

    def cumulative(ticks, weights=None):
        counts = np.bincount(bucket(ticks), weights, minlength=nb)
        return np.cumsum(counts).astype(np.int64)

    table[:, col_of["egressed"]] = cumulative(sched.egr_tick[run.egr_ok])
    table[:, col_of["phantoms_generated"]] = len(run.vplans) * cumulative(
        run.inj
    )
    remaps = [r for r in sched.remap_records if r[0] <= run.last_exec]
    if remaps:
        moves = cumulative(
            np.array([r[0] for r in remaps], dtype=np.int64),
            np.array([r[1] for r in remaps], dtype=np.float64),
        )
        table[:, col_of["remap_moves"]] = moves
        table[:, col_of["sharder_moves"]] = moves
    lane_cols = []
    for pi, plan in enumerate(run.vplans):
        dest = sched.dest[pi]
        ins = sched.ins_tick[pi]
        pop = sched.pop_tick[pi]
        matched = run.match_ok[pi]
        popped = run.pop_ok[pi]
        prev = sched.entry_pipe if pi == 0 else sched.dest[pi - 1]
        table[:, col_of["steering_moves"]] += cumulative(
            ins[matched & (dest != prev)]
        )
        mask = wasted_masks[pi] if wasted_masks is not None else None
        if mask is not None:
            table[:, col_of["wasted_slots"]] += cumulative(
                pop[popped & mask[: pop.shape[0]]]
            )
        # Lane levels: matches so far minus pops so far, per pipeline.
        level = np.bincount(
            bucket(ins[matched]) * k + dest[matched], minlength=nb * k
        ) - np.bincount(
            bucket(pop[popped]) * k + dest[popped], minlength=nb * k
        )
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
    return table.tolist()


def _wait_windows(run: _Executed, bounds):
    """The FIFO wait (pop tick minus match tick) of every executed pop
    on every plan, grouped by the boundary that closes it. Returns the
    waits as Python ints plus the end offset of each boundary's group.

    Within a group the waits come sorted rather than in pop order:
    they are ints, so their running sum is exact in any order, and the
    histogram sorts its window before summarizing it anyway — one
    composite ``np.sort`` here saves that sort its work."""
    sched = run.schedule
    closes, waits = [], []
    for pi in range(len(run.vplans)):
        popped = run.pop_ok[pi]
        pop = sched.pop_tick[pi][popped]
        ins = sched.ins_tick[pi][popped]
        queued = run.match_ok[pi][popped] & (ins <= pop)
        closes.append(np.searchsorted(bounds, pop, side="left"))
        waits.append(np.where(queued, pop - ins, 0))
    nb = bounds.shape[0]
    if not waits:
        return [], [0] * nb
    waits = np.concatenate(waits)
    span = int(waits.max(initial=0)) + 1
    keys = np.sort(np.concatenate(closes) * span + waits)
    ends = np.searchsorted(keys, np.arange(1, nb + 1) * span, side="left")
    return (keys % span).tolist(), ends.tolist()


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


def _check_pairing(monitor, run: _Executed, drained: bool, out) -> None:
    """**phantom_pairing** — on every plan a match never precedes the
    injection that emitted its phantom; every pop and every egress is
    preceded by the packet's match on every plan (a match that comes
    after its pop pairs nothing, which then shows at egress); and a
    drained run leaves no injected packet with an unpaired phantom."""
    sched = run.schedule
    egr = sched.egr_tick
    n = sched.inj.shape[0]
    injected = np.arange(n) < run.ninj
    emitted_at = np.where(injected, sched.inj, _FAR)
    paired_by_egress = np.zeros(n, dtype=np.int64)
    paired = np.zeros(n, dtype=np.int64)
    for pi, plan in enumerate(run.vplans):
        ins = sched.ins_tick[pi]
        pop = sched.pop_tick[pi]
        matched = run.match_ok[pi]
        out.predicates += 1
        early = matched & (ins < emitted_at)
        for r in np.nonzero(early)[0].tolist():
            out.add(
                ins[r], _P_PHANTOM_MATCH, r, monitor._match_without_emit,
                r, int(sched.dest[pi][r]), plan.stage,
            )
        pairs = matched & ~early & ~(run.pop_ok[pi] & (pop < ins))
        paired += pairs
        paired_by_egress += pairs & (ins <= egr)
    emitted = np.where(injected, len(run.vplans), 0)
    out.predicates += 1
    short = run.egr_ok & (emitted > paired_by_egress)
    for r in np.nonzero(short)[0].tolist():
        out.add(
            egr[r], _P_EGRESS, r, monitor._egress_outstanding,
            r, int(emitted[r] - paired_by_egress[r]),
        )
    if drained:
        out.predicates += 1
        dangling = injected & ~run.egr_ok & (emitted > paired)
        # end_run reports these from the monitor's own table.
        for r in np.nonzero(dangling)[0].tolist():
            monitor._outstanding[r] = int(emitted[r] - paired[r])


def _check_lanes(monitor, run: _Executed, pi: int, out) -> None:
    """**fifo_sanity** — per lane ``(pipe, stage)`` of plan ``pi``,
    matches so far cover pops so far at every pop (the j-th match is no
    later than the j-th pop), and no tick pops twice. One composite
    ``(lane, tick)`` key sorts each side."""
    sched = run.schedule
    stage = run.vplans[pi].stage
    dest = sched.dest[pi]
    ins = sched.ins_tick[pi]
    matched = run.match_ok[pi]
    popped = run.pop_ok[pi]
    span = run.last_exec + 2
    match_keys = np.sort(dest[matched] * span + ins[matched])
    pop_keys = np.sort(dest[popped] * span + sched.pop_tick[pi][popped])
    lane = pop_keys // span
    lane_starts = np.arange(run.k + 1) * span
    rank = np.arange(pop_keys.shape[0]) - np.searchsorted(
        pop_keys, lane_starts
    )[lane]
    pos = np.searchsorted(match_keys, lane_starts)[lane] + rank
    out.predicates += 1
    covered = pos < match_keys.shape[0]
    covered[covered] = match_keys[pos[covered]] <= pop_keys[covered]
    for j in np.nonzero(~covered)[0].tolist():
        pipe, tick = divmod(int(pop_keys[j]), span)
        in_lane = dest == pipe
        pops = int(rank[j]) + 1
        data = int(np.count_nonzero(in_lane & matched & (ins <= tick))) - pops
        # Phantoms are emitted at injection; no ring exists to count.
        total = int(
            np.count_nonzero(in_lane[: run.ninj] & (run.inj <= tick))
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


def _check_indices(monitor, run: _Executed, pi: int, remap_ticks, out) -> None:
    """**c1_order** — per ``(stage, array, index)`` of plan ``pi``,
    packet ids ascend in pop order (``(tick, pkt)``, the scalar event
    order): over the popped rows of an index, pop ticks never fall as
    ids rise. **shard_exclusivity** — when consecutive accesses of one
    index land on different pipelines, the earlier one was popped
    before a remap boundary that the later one was injected after."""
    sched = run.schedule
    plan = run.vplans[pi]
    dest = sched.dest[pi]
    pop = sched.pop_tick[pi]
    popped = run.pop_ok[pi]
    idx = sched.acc_idx[pi][: run.ninj]
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
    for index in np.unique(idx_p[1:][fell]).tolist():
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


def _check_in_flight(monitor, run: _Executed, bounds, out) -> None:
    """**conservation** — injected >= egressed at every boundary. (The
    cross-check of the engine's own counters against the columns runs
    at end of run, see :class:`_SwitchView`.)"""
    nb = bounds.shape[0]
    injected = np.cumsum(np.bincount(
        np.searchsorted(bounds, run.inj, side="left"), minlength=nb
    ))
    egressed = np.cumsum(np.bincount(
        np.searchsorted(
            bounds, run.schedule.egr_tick[run.egr_ok], side="left"
        ),
        minlength=nb,
    ))
    out.predicates += 1
    for j in np.nonzero(egressed > injected)[0].tolist():
        out.add(
            min(int(bounds[j]), run.last_exec), _P_END_TICK, -1,
            monitor._negative_in_flight,
            int(injected[j]), int(egressed[j]), 0,
        )


def _schedule_violations(monitor, run: _Executed, bounds, drained: bool):
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
        [tick for tick, _moved in run.schedule.remap_records], dtype=np.int64
    )
    _check_pairing(monitor, run, drained, out)
    for pi, plan in enumerate(run.vplans):
        _check_lanes(monitor, run, pi, out)
        if plan.has_index and not plan.multi:
            # Array-level accesses are exempt: C1 and the in-flight rule
            # apply to the per-index states the paper shards.
            _check_indices(monitor, run, pi, remap_ticks, out)
    _check_in_flight(monitor, run, bounds, out)
    out.found.sort()
    return out


def feed_window_sinks(
    switch, schedule, wasted_masks, drained: bool, metrics=None, monitor=None
) -> Dict[str, int]:
    """Feed a registry and/or a monitor the finished run, one window at
    a time. Returns ``{"windows", "predicates"}`` for the profiler.

    The hook sequence per boundary is the scalar run loop's: the tick's
    violations, then ``metrics.roll``, then the monitor's window roll
    and detector step; after the last tick ``metrics.roll(ticks)`` and
    ``monitor.end_run``. ``schedule`` may be None for runs that never
    built one (empty trace, or ``max_ticks <= 0``); the sinks still see
    registration and the final roll, like a scalar run whose loop never
    stepped.
    """
    stats = switch.stats
    ticks = stats.ticks
    # The scalar engines' own sampler schema, name for name and in
    # order. The vector envelope excludes bounded FIFOs, phantom loss
    # and ``record_crossbar``, so the drop columns stay zero and
    # ``crossbar_crossings`` is absent — like on a scalar run.
    columns = [(name, cum) for name, cum, _read in switch._metric_sources()]
    row = [0] * len(columns)
    user_rolls = mon_rolls = frozenset()
    if metrics is not None:
        _register_sources(metrics, columns, row)
        lat_hist = metrics.histogram("latency")
        user_rolls = frozenset(_roll_ticks(metrics, ticks))
    if monitor is not None:
        if monitor._switch is not None:
            raise ConfigError(
                "an InvariantMonitor tracks one run; construct a fresh "
                "monitor per switch"
            )
        view = monitor._switch = _SwitchView(switch, schedule)
        _register_sources(monitor.registry, columns, row)
        mon_rolls = frozenset(_roll_ticks(monitor.registry, ticks))
    # In-run roll ticks of either registry, then the end of the run.
    bounds = sorted(user_rolls | mon_rolls) + [ticks]
    bounds_arr = np.array(bounds, dtype=np.int64)
    last = len(bounds) - 1

    found: List[Tuple] = []
    predicates = 0
    lat: List = []
    waits: List[int] = []
    lat_cuts = wait_cuts = [0] * len(bounds)
    if schedule is None:
        table = [row] * len(bounds)
    else:
        run = _Executed(switch, schedule, ticks - 1)
        table = _sampler_table(run, wasted_masks, columns, bounds_arr)
        if metrics is not None:
            # The reconstructed stats already hold every latency (typed
            # like its arrival) in the scalar engines' egress order,
            # (tick, pipeline): float sums fold in the same order.
            lat = stats.latencies
            lat_cuts = np.searchsorted(
                stats.egress_ticks, bounds_arr, side="right"
            ).tolist()
        if monitor is not None:
            waits, wait_cuts = _wait_windows(run, bounds_arr)
            violations = _schedule_violations(
                monitor, run, bounds_arr, drained
            )
            found, predicates = violations.found, violations.predicates
            monitor.injected = run.ninj
            monitor.egressed = int(np.count_nonzero(run.egr_ok))

    lat_pos = wait_pos = raised = 0
    for j, tick in enumerate(bounds):
        row[:] = table[j]
        if metrics is not None and (j == last or tick in user_rolls):
            lat_hist.observe_many(lat[lat_pos : lat_cuts[j]])
            lat_pos = lat_cuts[j]
            metrics.roll(tick)
        if monitor is not None and (j == last or tick in mon_rolls):
            while raised < len(found) and found[raised][0] <= tick:
                at, _prio, _pkt, _seq, raise_fn, args = found[raised]
                raise_fn(at, *args)
                raised += 1
            monitor._wait_hist.observe_many(waits[wait_pos : wait_cuts[j]])
            wait_pos = wait_cuts[j]
            if j < last:
                monitor.roll_window(tick)
            else:
                if ticks > 0:
                    monitor._check_conservation(ticks - 1, view)
                monitor.end_run(ticks, view, drained)
    return {"windows": len(bounds), "predicates": predicates}


# ---------------------------------------------------------------------------
# Event synthesis, for the recorder
# ---------------------------------------------------------------------------


def synthesize_events(switch, schedule) -> List[Tuple]:
    """The run's full event stream as sortable tuples.

    Tuple layouts (every field a Python int unless noted):

    ========== ==========================================
    priority    payload after ``(tick, priority, ...)``
    ========== ==========================================
    ingress     pkt, pipe, port, flow (flow may be None)
    phantom     pkt, stage, pipe, array (str), index (or None)
    steer       pkt, stage, src, pipe
    match       pkt, stage, pipe
    egress      pkt, latency (arrival-typed)
    block       pipe, stage
    pop         pkt, pipe, stage
    service     pkt, stage, pipe
    remap       moves
    ========== ==========================================

    Plain ``list.sort`` is safe: within one (tick, priority) class the
    leading integer fields always differ before any None/str/float field
    is compared (a packet visits each stage once; lanes are unique).
    """
    vplans = switch._vplans
    stats = switch.stats
    last_exec = stats.ticks - 1
    ninj = schedule.injected
    inj = schedule.inj.tolist()
    entry_pipe = schedule.entry_pipe
    dest = schedule.dest
    events: List[Tuple] = []
    add = events.append

    # Injection tick: ingress, one phantom per plan, and the services of
    # instruction-bearing stateless stages before the first plan stage.
    entry_l = entry_pipe.tolist()
    port = switch._port[:ninj].tolist()
    flow = switch._flow
    for r in range(ninj):
        add((inj[r], _P_INGRESS, r, entry_l[r], port[r], flow[r]))
    for pi, plan in enumerate(vplans):
        d = dest[pi].tolist()
        stage = plan.stage
        label = plan.label
        if plan.has_index and not plan.multi:
            idx = schedule.acc_idx[pi].tolist()
            for r in range(ninj):
                add((inj[r], _P_PHANTOM_EMIT, r, stage, d[r], label, idx[r]))
        else:
            for r in range(ninj):
                add((inj[r], _P_PHANTOM_EMIT, r, stage, d[r], label, None))
    for u in switch._transit_after_inject:
        off = u - 1
        for r in range(ninj):
            t = inj[r] + off
            if t <= last_exec:
                add((t, _P_SERVICE, r, u, entry_l[r]))

    # Per-plan FIFO lifecycle: steer+match at insert, pop (+service) at
    # the pop-chain tick, post-plan transit services one stage per tick.
    for pi, plan in enumerate(vplans):
        ins = schedule.ins_tick[pi].tolist()
        pop = schedule.pop_tick[pi].tolist()
        d = dest[pi].tolist()
        prev = entry_l if pi == 0 else dest[pi - 1].tolist()
        stage = plan.stage
        has_service = bool(switch._stage_instrs[stage])
        transits = switch._transit_after[pi]
        for r in range(ninj):
            it = ins[r]
            if 0 <= it <= last_exec:
                add((it, _P_STEER, r, stage, prev[r], d[r]))
                add((it, _P_PHANTOM_MATCH, r, stage, d[r]))
            pt = pop[r]
            if 0 <= pt <= last_exec:
                add((pt, _P_FIFO_POP, r, d[r], stage))
                if has_service:
                    add((pt, _P_SERVICE, r, stage, d[r]))
                for u in transits:
                    t = pt + (u - stage)
                    if t <= last_exec:
                        add((t, _P_SERVICE, r, u, d[r]))

    # Head-of-line blocking episodes, per (plan, pipeline) FIFO group:
    # the head's pop waits until max(prev_pop + 1, its insert tick);
    # the episode opens at the first tick queued data coexists with the
    # head's still-absent data — the suffix-minimum of later members'
    # insert ticks, clamped by the pop cadence.
    for pi, plan in enumerate(vplans):
        stage = plan.stage
        ins_col = schedule.ins_tick[pi]
        pop_col = schedule.pop_tick[pi]
        for pipe, members in enumerate(schedule.lanes(pi)):
            cnt = members.shape[0]
            if cnt == 0:
                continue
            ins_m = np.where(
                ins_col[members] >= 0, ins_col[members], _FAR
            ).tolist()
            pop_m = pop_col[members].tolist()
            # suffix-min of strictly-later members' insert ticks
            suf = [0] * cnt
            running = _FAR
            for j in range(cnt - 1, -1, -1):
                suf[j] = running
                if ins_m[j] < running:
                    running = ins_m[j]
            prev_pop = -1
            for j in range(cnt):
                b = prev_pop + 1
                if suf[j] > b:
                    b = suf[j]
                pj = pop_m[j]
                if pj >= 0:
                    if b < pj:
                        add((b, _P_FIFO_BLOCK, pipe, stage))
                    prev_pop = pj
                else:
                    # Final head: its pop would have landed at pw but the
                    # run was cut; the episode still opens if data queued
                    # behind it within the executed ticks.
                    pw = ins_m[j] if ins_m[j] > prev_pop else prev_pop + 1
                    if b < pw and b <= last_exec:
                        add((b, _P_FIFO_BLOCK, pipe, stage))
                    break

    # Egress and remap boundaries.
    done = np.nonzero(schedule.egr_tick >= 0)[0]
    if done.size:
        egr = schedule.egr_tick[done].tolist()
        arrival = stats.arrival_ticks
        for t, r in zip(egr, done.tolist()):
            add((t, _P_EGRESS, r, t - arrival[r]))
    for boundary, moved in schedule.remap_records:
        add((int(boundary), _P_REMAP, int(moved)))

    events.sort()
    return events


def _dispatch_events(recorder, events: List[Tuple], ticks: int) -> None:
    """Dispatch the sorted stream through an emitter surface (the
    recorder's; the corrupted-schedule tests pass a monitor's)."""
    emit = {
        _P_INGRESS: recorder.ingress,
        _P_PHANTOM_EMIT: lambda t, r, stage, pipe, array, index: (
            recorder.phantom_emit(t, r, pipe, stage, array, index)
        ),
        _P_STEER: lambda t, r, stage, src, pipe: (
            recorder.steer(t, r, src, pipe, stage)
        ),
        _P_PHANTOM_MATCH: lambda t, r, stage, pipe: (
            recorder.phantom_match(t, r, pipe, stage)
        ),
        _P_EGRESS: recorder.egress,
        _P_FIFO_BLOCK: recorder.fifo_block,
        _P_FIFO_POP: recorder.fifo_pop,
        _P_SERVICE: lambda t, r, stage, pipe: (
            recorder.service(t, r, pipe, stage)
        ),
        _P_REMAP: recorder.remap,
    }
    for ev in events:
        if ev[0] >= ticks:
            break  # scheduled past a max_ticks cut: never executed
        emit[ev[1]](ev[0], *ev[2:])


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def replay_observability(
    switch,
    schedule,
    wasted_masks: Optional[List],
    drained: bool,
    recorder=None,
    metrics=None,
    monitor=None,
) -> Dict:
    """Feed the attached sinks the run they never saw live: the
    registry and the monitor window by window from the schedule's
    columns, the recorder event by event. Returns what was fed, for the
    profiler's ``trace_reconstruct`` record."""
    fed: Dict = {"kinds": []}
    if recorder is not None:
        fed["kinds"].append("recorder")
        if schedule is not None:
            events = synthesize_events(switch, schedule)
            _dispatch_events(recorder, events, switch.stats.ticks)
    if metrics is not None or monitor is not None:
        if metrics is not None:
            fed["kinds"].append("metrics")
        if monitor is not None:
            fed["kinds"].append("monitor")
        fed.update(
            feed_window_sinks(
                switch, schedule, wasted_masks, drained, metrics, monitor
            )
        )
    return fed
