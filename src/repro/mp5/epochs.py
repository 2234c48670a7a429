"""Epoch schedule construction and service execution.

The batch engine's run splits into two exact phases, hinging on one
structural fact the scalar engines establish: **every access index is
resolved at the resolution stage** (stage 0 plus the stateless transit
stages before the first plan stage), which contains no stateful
instructions. Register *values* therefore never influence the timing
layer — injection ticks, FIFO group membership, pop chains, access and
in-flight counters, and every remap decision derived from them.

* **Phase A** (:class:`EpochStreamer`) — the sequential sweep over
  remap epochs, *incremental*: :meth:`EpochStreamer.ingest` extends
  the injection recurrence and runs the resolution stage as packets
  arrive, and :meth:`EpochStreamer.advance_epoch` processes one epoch
  cut as soon as the ingest watermark proves its arrivals are complete
  (every future packet has ``inj >= ceil(arrival) >= watermark >
  cut``). A row's destinations are read from the index map when it
  injects, behind every earlier member of its FIFO groups, so the cut
  that injects it resolves its pops at every plan (``pop[j] =
  max(pop[j-1] + 1, insert[j])``) and its egress; an epoch's chunk is
  the rows that pop in it, which the in-flight counters the real
  :class:`~repro.mp5.sharding.ShardingRuntime` remaps from at each
  boundary follow, and the cut appends it to each plan's unserviced
  list. No stateful service runs here. Once the sweep is done,
  :meth:`EpochStreamer.finalize` snapshots it as an
  :class:`EpochSchedule`, the one record of the run: per-row tick
  columns in which -1 means "never executes" (not injected, or past a
  ``max_ticks`` cut), each plan's FIFO lanes and the egress order —
  independent of feed chunking and of how Phase B executes. Stats,
  sinks and the profiler read it; none re-derives it.

* **Phase B** (:func:`execute_epoch_service`) — drains what Phase A
  queued against register state: every epoch one
  :meth:`~repro.mp5.vector.VectorSwitch.pump` closed is serviced in one
  sweep, one pass per plan over the plan's unserviced chunks
  concatenated in epoch order. An offline run is one sweep at the
  drain; ``pump(max_steps=1)`` is epoch-by-epoch service. Only Phase A
  needs the boundaries (the remap reads counters there); a sweep of any
  width visits every slot in the scalar engines' global (tick,
  pipeline) service order, for the three reasons the function's
  docstring gives. A plan's sweep admits
  three executions that are exact by construction, all in process: a
  segmented prefix sum per register slot for a scan-shaped stage
  (:func:`repro.compiler.lower.scan_form`: read-add-write and
  predicated-write updates), the NumPy wave decomposition (same-index
  rows in successive waves) and a fused per-row kernel in service order
  (:mod:`repro.compiler.native`). The code picks from the program and
  from what it can observe — no flag: a scan-shaped stage always
  scans, wave or serial, jitted or not; any other serial plan runs the
  fused kernel (``@njit`` when Numba imports, the same source as plain
  Python otherwise); any other wave plan runs it only when it is
  jitted, else the wave decomposition.
"""

from __future__ import annotations

import hashlib
from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..compiler.native import compile_native_stage
from ..compiler.tac import Const, _to_signed32
from ..compiler.vjit import vector_builtin

_FAR = 1 << 62  # sentinel horizon: beyond any reachable tick
_flow_hash = vector_builtin("hash2")  # flow-order index, as column ops


def _grown(arr: np.ndarray, n: int, fill=None) -> np.ndarray:
    """``arr`` with capacity >= ``n``, doubling to amortize feeds. The
    expansion region is set to ``fill`` when given, so cells past the
    written prefix always hold the array's initial value."""
    cap = arr.shape[0]
    if cap >= n:
        return arr
    new_cap = max(cap or n, 64)  # a first allocation is exact
    while new_cap < n:
        new_cap *= 2
    out = np.empty(new_cap, dtype=arr.dtype)
    out[:cap] = arr
    if fill is not None:
        out[cap:] = fill
    return out


class EpochSchedule:
    """Phase A's output: the timing of one run, settled once.

    Every stored tick column (``ins_tick``, ``pop_tick``, ``egr_tick``)
    reads -1 for an event that never executes — a row never injected,
    or a tick past a ``max_ticks`` cut — so "executed" is ``t >= 0``
    everywhere. ``lanes[pi][pipe]`` is plan ``pi``'s FIFO group on
    ``pipe``: the injected rows routed there in id order, which is
    their pop order, so a group's pop ticks rise along it.
    ``egress_rows`` are the executed egresses in the scalar engines'
    (tick, pipeline) order, the order of the stats' egress lists.
    Consumers read these; none re-derives them.
    """

    __slots__ = (
        "k",
        "inj",
        "entry_pipe",
        "acc_idx",
        "dest",
        "ins_tick",
        "pop_tick",
        "lanes",
        "egr_tick",
        "egr_pipe",
        "egress_rows",
        "injected",
        "egr_assigned",
        "last_egress",
        "epochs",
        "cut_limit",
        "remap_records",
    )

    def dag_signature(self) -> str:
        """Digest of the task DAG: the per-row columns that fix Phase
        B's service order (``pop_tick``, ``dest``, ``acc_idx``,
        ``egr_tick``, ``egr_pipe``) and what fixes the epoch partition
        (``remap_records``, ``epochs``, ``injected``). Equal signatures
        mean equal service work however it is executed (the determinism
        contract's test hook)."""
        digest = hashlib.sha256()
        digest.update(np.int64([self.epochs, self.injected]).tobytes())
        digest.update(np.int64(self.remap_records).tobytes())
        for pi, pops in enumerate(self.pop_tick):
            digest.update(pops.tobytes())
            digest.update(self.dest[pi].tobytes())
            idx = self.acc_idx[pi]
            if idx is not None:
                digest.update(idx.tobytes())
        digest.update(self.egr_tick.tobytes())
        digest.update(self.egr_pipe.tobytes())
        return digest.hexdigest()


class EpochStreamer:
    """Incremental Phase A: the epoch sweep as a resumable state
    machine.

    The sweep's loop body is split at its two decision points:

    * **content** — compute the epoch's cut, inject every packet with
      ``inj <= cut`` (resolving its timeline at every plan, see
      :meth:`_inject`) and commit every pop at or before it. Mid-stream
      this requires the cut to be *closed*: ``cut < watermark`` proves
      no future packet can inject at or before it (monotone feeds give
      ``inj >= ceil(arrival) >= watermark``).
    * **decide** — at the boundary, re-create the scalar run loop's
      liveness test. ``injected > egr_assigned`` and
      ``last_egress >= boundary`` are exact once the content is
      processed; ``injected < n_fed`` is the one clause that depends on
      packets not yet fed, so a boundary that looks dead mid-stream
      *stalls* (no remap, no progress) until either a later feed
      revives it or the drain (``final=True``) confirms it.

    With remapping off there are no boundaries: the single closed-form
    cut is only provably complete at drain, so nothing advances
    mid-stream and memory-bounded streaming requires remapping on.

    The per-packet arrays grow by doubling. A row's timeline depends
    only on earlier rows and on the index map at its injection, and a
    chunk only on which pops fall at or before a cut, so
    :meth:`finalize`'s :class:`EpochSchedule` — and therefore the DAG
    signature — is bit-identical at any feed chunking.
    """

    def __init__(
        self, switch, H: Dict, E: Dict, R: Dict, max_ticks: Optional[int]
    ):
        self.H = H  # shared dict objects; caller swaps grown columns in
        self.E = E
        self.R = R
        cfg = switch.config
        self.cfg = cfg
        self.stats = switch.stats
        self.k = cfg.num_pipelines
        self.depth = switch.depth
        self.vplans = switch._vplans
        self.nplans = len(self.vplans)
        self.kernels = switch._vkernels
        # Only what the sweep reads — no reference back to the switch,
        # which owns this streamer (a cycle would leave a finished
        # switch to the cycle collector).
        self.transit_after_inject = switch._transit_after_inject
        self.sharder = switch.sharder
        # Last executable tick: the run loop breaks before tick max_ticks.
        self.cut_limit = (max_ticks - 1) if max_ticks is not None else None
        self.period = cfg.remap_period
        self.remap_on = cfg.remap_algorithm != "none"

        self.n_fed = 0
        self.inj = np.empty(0, dtype=np.int64)
        self.entry_pipe = np.empty(0, dtype=np.int64)
        self.egr_tick = np.empty(0, dtype=np.int64)
        self.egr_pipe = np.empty(0, dtype=np.int64)
        self.acc_idx = [
            np.empty(0, dtype=np.int64) if p.has_index else None
            for p in self.vplans
        ]
        self.dest = [np.empty(0, dtype=np.int64) for _ in self.vplans]
        self.ins_tick = [np.empty(0, dtype=np.int64) for _ in self.vplans]
        self.pop_tick = [np.empty(0, dtype=np.int64) for _ in self.vplans]
        # Per plan: each group's last resolved pop, and the injected
        # rows whose pop lies past the last cut, with those pops.
        self.last_pop = [np.full(self.k, -1, np.int64) for _ in self.vplans]
        none = np.empty(0, dtype=np.int64)
        self.pending = [(none, none) for _ in self.vplans]
        self._pipe_key = np.min_scalar_type(self.k - 1)  # radix sort key
        #: Per plan: the chunks committed since the last Phase B sweep,
        #: one ``(rows, pops)`` pair per epoch in epoch order.
        self.unserviced: List[List[Tuple[np.ndarray, np.ndarray]]] = [
            [] for _ in self.vplans
        ]
        self.remap_records: List[Tuple[int, int]] = []

        self.injected = 0
        self.egr_assigned = 0
        self.last_egress = -1
        self.epochs = 0
        self.done = False
        #: Highest cut whose content has been processed (display only).
        self.executed_through = -1
        self._epoch_start = 0
        self._phase = "content"
        self._boundary: Optional[int] = None
        # Injection recurrence per residue class r = row % k:
        # inj[i] = i_local + max_{j<=i}(ceil(arrival_j) - j_local), a
        # running maximum that extends across feed batches.
        self._class_count = [0] * self.k
        self._class_run = [-_FAR] * self.k

    # -- ingest ---------------------------------------------------------

    @property
    def buffered(self) -> int:
        """Packets fed but not yet assigned an egress tick."""
        return self.n_fed - self.egr_assigned

    def ingest(self, arrival: np.ndarray) -> None:
        """Extend the injection schedule with one sorted feed batch.

        ``arrival`` is the batch's float64 arrival column, already in
        global (arrival, port, pkt_id) order — the caller enforces the
        monotone-feed contract. The timing recurrence and the stateless
        resolution stage run here (:meth:`_resolve`); injection itself
        happens when a cut that covers it is processed.
        """
        n = int(arrival.shape[0])
        if n == 0:
            return
        lo = self.n_fed
        hi = lo + n
        k = self.k
        self.inj = _grown(self.inj, hi)
        self.entry_pipe = _grown(self.entry_pipe, hi)
        self.egr_tick = _grown(self.egr_tick, hi, fill=-1)
        self.egr_pipe = _grown(self.egr_pipe, hi, fill=-1)
        for pi in range(self.nplans):
            if self.acc_idx[pi] is not None:
                self.acc_idx[pi] = _grown(self.acc_idx[pi], hi, fill=-1)
            self.dest[pi] = _grown(self.dest[pi], hi, fill=0)
            self.ins_tick[pi] = _grown(self.ins_tick[pi], hi, fill=-1)
            self.pop_tick[pi] = _grown(self.pop_tick[pi], hi, fill=-1)
        ceil_a = np.ceil(arrival).astype(np.int64)
        for r in range(min(k, hi)):
            start = lo + ((r - lo) % k)
            sel = np.arange(start, hi, k)
            if sel.shape[0] == 0:
                continue
            count = self._class_count[r]
            i_local = count + np.arange(sel.shape[0], dtype=np.int64)
            runmax = np.maximum.accumulate(ceil_a[sel - lo] - i_local)
            np.maximum(runmax, self._class_run[r], out=runmax)
            self.inj[sel] = i_local + runmax
            self._class_run[r] = int(runmax[-1])
            self._class_count[r] = count + sel.shape[0]
        self.entry_pipe[lo:hi] = np.arange(lo, hi, dtype=np.int64) % k
        self.n_fed = hi
        self._resolve(lo, hi)

    def _resolve(self, lo: int, hi: int) -> None:
        """Run the resolution stage over fed rows ``[lo, hi)`` and read
        off each plan's access index. Stage 0 and the pre-plan transit
        stages are stateless by admission, so running them at ingest —
        before any service executes — reads and writes only the rows'
        own columns."""
        H, E, R = self.H, self.E, self.R
        rows = np.arange(lo, hi, dtype=np.int64)
        kern0 = self.kernels[0]
        if kern0 is not None:
            kern0.fn(H, R, E, rows)
        for u in self.transit_after_inject:
            self.kernels[u].fn(H, R, E, rows)
        for pi, plan in enumerate(self.vplans):
            if plan.is_flow:
                # Raw keys: only their low 32 bits reach the hash's
                # first multiply, whose int64 product wraps mod 2**64.
                keys = H[self.cfg.flow_order_field][lo:hi]
                self.acc_idx[pi][lo:hi] = _flow_hash(keys, 0x5F0E) % plan.size
            elif plan.has_index:
                op = plan.index_operand
                if isinstance(op, Const):
                    self.acc_idx[pi][lo:hi] = op.value % plan.size
                else:
                    self.acc_idx[pi][lo:hi] = E[op.name][lo:hi] % plan.size

    # -- the sweep ------------------------------------------------------

    def _chain(self, pi: int, dv: np.ndarray, ins: np.ndarray):
        """Pops at plan ``pi`` of newly injected rows bound for pipelines
        ``dv`` with insert ticks ``ins``: each group's chain ``pop[j] =
        max(pop[j-1] + 1, ins[j])``, continued from its last pop, for
        all pipelines in one running maximum. Returns the pops in row
        order, then the rows' offsets and pops in (pipeline, id) order."""
        n = dv.shape[0]
        last = self.last_pop[pi]
        order = dv.astype(self._pipe_key).argsort(kind="stable")
        counts = np.bincount(dv, minlength=self.k)
        ends = counts.cumsum()
        seg = dv[order]
        j = np.arange(n, dtype=np.int64) - (ends - counts)[seg]
        v = np.maximum(ins[order], last[seg] + 1) - j
        # Lift each group's values above every earlier group's, so the
        # one running maximum restarts at each group boundary.
        lift = seg * (int(v.max()) - int(v.min()) + 1)
        pops_s = j + np.maximum.accumulate(v + lift) - lift
        hit = counts > 0
        last[hit] = pops_s[ends[hit] - 1]
        pops = np.empty(n, dtype=np.int64)
        pops[order] = pops_s
        return pops, order, pops_s

    def _inject(self, lo: int, hi: int) -> None:
        """Inject rows ``[lo, hi)`` and resolve their whole timeline.
        Per plan, in stage order: count the accesses into the sharder,
        read each row's pipeline off the index map as it stands now,
        continue the groups' pop chains and add the stage gap for the
        next insert (after the last plan: the egress tick). The rows
        join each plan's pending list in (pipeline, id) order."""
        vplans = self.vplans
        stages = [plan.stage for plan in vplans] + [self.depth]
        ins = self.inj[lo:hi] + (stages[0] - 1)
        dv = self.entry_pipe[lo:hi]
        for pi, plan in enumerate(vplans):
            self.ins_tick[pi][lo:hi] = ins
            state = self.sharder.arrays[plan.base]
            if plan.has_index:
                iv = self.acc_idx[pi][lo:hi]
                counts = np.bincount(iv, minlength=plan.size)
                self.sharder.note_counts(plan.base, counts)
                state.in_flight += counts.astype(state.in_flight.dtype)
                dv = state.index_to_pipeline[iv].astype(np.int64)
            else:
                dv = np.full(hi - lo, int(state.index_to_pipeline[0]))
            self.dest[pi][lo:hi] = dv
            pops, order, pops_s = self._chain(pi, dv, ins)
            self.pop_tick[pi][lo:hi] = pops
            rows, pend = self.pending[pi]
            self.pending[pi] = (
                np.concatenate((rows, order + lo)),
                np.concatenate((pend, pops_s)),
            )
            ins = pops + (stages[pi + 1] - plan.stage)
        self.egr_tick[lo:hi] = ins
        self.egr_pipe[lo:hi] = dv
        self.injected = hi
        if not vplans:
            self._close_egress(ins)  # no FIFO on the way

    def _close_egress(self, et: np.ndarray) -> None:
        """Count the egresses ``et`` of rows whose last pop committed.
        The run loop breaks before tick ``max_ticks``: an egress past
        ``cut_limit`` never executes, and the packet stays buffered."""
        if self.cut_limit is not None:
            et = et[et <= self.cut_limit]
        if et.size:
            self.egr_assigned += et.shape[0]
            self.last_egress = max(self.last_egress, int(et.max()))

    def _process_cut(self, cut: int) -> bool:
        """Inject everything scheduled at or before ``cut`` and commit
        every pop at or before it: each plan's pending rows that pop by
        the cut join its :attr:`unserviced` list as the epoch's chunk,
        older rows first, so one group's rows — and hence one index's —
        stay in pop order. True iff some plan queued a chunk."""
        vplans = self.vplans
        queued = False

        hi = int(
            np.searchsorted(self.inj[: self.n_fed], cut, side="right")
        )
        if hi > self.injected:
            self._inject(self.injected, hi)

        for pi, plan in enumerate(vplans):
            rows_p, pops = self.pending[pi]
            due = pops <= cut
            cnt = int(np.count_nonzero(due))
            if cnt == 0:
                continue
            if cnt < pops.shape[0]:
                self.pending[pi] = (rows_p[~due], pops[~due])
                rows_p, pops = rows_p[due], pops[due]
            else:
                self.pending[pi] = (rows_p[:0], pops[:0])
            self.unserviced[pi].append((rows_p, pops))
            queued = True
            if plan.has_index and not plan.is_flow:
                state = self.sharder.arrays[plan.base]
                state.in_flight -= np.bincount(
                    self.acc_idx[pi][rows_p], minlength=plan.size
                ).astype(state.in_flight.dtype)
            if pi + 1 == len(vplans):
                self._close_egress(pops + (self.depth - plan.stage))
        self.executed_through = cut
        return queued

    def _cut(self) -> Tuple[Optional[int], int]:
        """The open epoch's boundary (None with remapping off) and its
        cut: the boundary, or the single closed-form cut, clamped to the
        last executable tick."""
        boundary = (
            (self._epoch_start + self.period) if self.remap_on else None
        )
        cut = _FAR if boundary is None else boundary
        if self.cut_limit is not None and self.cut_limit < cut:
            cut = self.cut_limit
        return boundary, cut

    def _closed(self, watermark: Optional[int]) -> bool:
        """Whether the watermark closes the open epoch's cut mid-stream:
        a future packet has ``inj >= ceil(arrival) >= watermark``, so
        ``cut < watermark`` proves no arrival below it is missing. With
        remapping off only the drain closes the one cut."""
        boundary, cut = self._cut()
        return (
            boundary is not None and watermark is not None and cut < watermark
        )

    def _alive(self, boundary: int) -> bool:
        """Whether the scalar run loop is alive at the boundary tick —
        packets still pending injection or in flight there — so that
        tick's remap executes. ``injected < n_fed`` is the one clause
        that depends on packets not yet fed."""
        return (
            self.injected < self.n_fed
            or self.injected > self.egr_assigned
            or self.last_egress >= boundary
        )

    def can_advance(self, watermark: Optional[int]) -> bool:
        """True iff :meth:`advance_epoch` with this watermark (and
        ``final=False``) would make progress — the daemon's
        work-available probe. It asks the advance's own two gates, so a
        True always buys state change and a False never spins."""
        if self.done:
            return False
        if self._phase == "decide":
            return self._alive(self._boundary)
        return self._closed(watermark)

    def advance_epoch(
        self, watermark: Optional[int] = None, final: bool = False
    ) -> bool:
        """Run the sweep until one epoch's chunks are queued on
        :attr:`unserviced`, the sweep completes, or it must wait
        (watermark too low / stalled boundary). True iff an epoch was
        queued (check :attr:`done` to tell completion from a stall).
        ``final=True`` asserts no further packets will be fed — the
        drain."""
        while True:
            if self.done:
                return False
            if self._phase == "decide":
                boundary = self._boundary
                if self._alive(boundary):
                    moved = self.sharder.end_epoch(
                        self.cfg.remap_algorithm
                    )
                    self.stats.remap_moves += moved
                    self.remap_records.append((boundary, moved))
                    self._epoch_start = boundary
                    self.epochs += 1
                    self._phase = "content"
                    continue
                if final:
                    self.done = True
                # Dead as far as fed packets go, but a later feed can
                # revive the boundary (the scalar test is injected < N
                # over the *whole* trace): stall until feed or drain.
                return False

            if not final and not self._closed(watermark):
                return False
            boundary, cut = self._cut()
            queued = self._process_cut(cut)
            if boundary is None or (
                self.cut_limit is not None and boundary > self.cut_limit
            ):
                self.done = True
                return queued
            self._phase = "decide"
            self._boundary = boundary
            if queued:
                return True
            # Empty epoch: fall through to the boundary decision.

    def finalize(self) -> EpochSchedule:
        """Snapshot the finished sweep as an :class:`EpochSchedule`
        (capacity arrays trimmed to the fed prefix) and settle what its
        columns mean. The run loop breaks before tick ``max_ticks``, so
        a tick past ``cut_limit`` never executes: every such insert, pop
        and egress reads -1. Each plan's lanes and the egress order are
        sorted here, once."""
        n = self.n_fed
        if self.cut_limit is not None:
            for col in self.ins_tick + self.pop_tick + [self.egr_tick]:
                col[:n][col[:n] > self.cut_limit] = -1
            self.egr_pipe[:n][self.egr_tick[:n] < 0] = -1
        sched = EpochSchedule()
        sched.k = self.k
        sched.cut_limit = self.cut_limit
        sched.remap_records = self.remap_records
        sched.inj = self.inj[:n]
        sched.entry_pipe = self.entry_pipe[:n]
        sched.acc_idx = [
            a[:n] if a is not None else None for a in self.acc_idx
        ]
        sched.dest = [d[:n] for d in self.dest]
        sched.ins_tick = [t[:n] for t in self.ins_tick]
        sched.pop_tick = [t[:n] for t in self.pop_tick]
        sched.lanes = []
        for dest in sched.dest:
            dest = dest[: self.injected]
            order = dest.astype(self._pipe_key).argsort(kind="stable")
            ends = np.bincount(dest, minlength=self.k).cumsum()
            sched.lanes.append(np.split(order, ends[:-1]))
        sched.egr_tick = egr = self.egr_tick[:n]
        sched.egr_pipe = self.egr_pipe[:n]
        done = np.flatnonzero(egr >= 0)
        sched.egress_rows = done[np.lexsort((sched.egr_pipe[done], egr[done]))]
        sched.injected = self.injected
        sched.egr_assigned = self.egr_assigned
        sched.last_egress = self.last_egress
        sched.epochs = self.epochs
        return sched


# ---------------------------------------------------------------------------
# Phase B: service execution
# ---------------------------------------------------------------------------


def _fused_kernel(switch, stage: int, track_reg: Optional[str]):
    """Fused per-row kernel for one stage, cached on the program."""
    cache = switch.program.kernels
    key = ("native", stage, track_reg)
    if key not in cache:
        cache[key] = compile_native_stage(
            switch._stage_instrs[stage],
            f"s{stage}",
            track_reg=track_reg,
            live_out=switch._live_temps(),
        )
    return cache[key]


def _fused_service(nkern, rows, H: Dict, E: Dict, R: Dict, mask) -> int:
    """Run ``rows`` (already in service order) through a fused kernel;
    returns the wasted-slot count. A tracking kernel reports *which*
    positions wasted their slot, flagged in ``mask`` when one is given
    (trace reconstruction)."""
    cols = (
        [H[f] for f in nkern.fields]
        + [E[t] for t in nkern.temps]
        + [R[r] for r in nkern.regs]
    )
    if nkern.track_reg is None:
        return int(nkern.fn(rows, *cols))
    lane = np.zeros(rows.shape[0], dtype=bool)
    wasted = int(nkern.fn(rows, lane, *cols))
    if mask is not None:
        mask[rows[lane]] = True
    return wasted


def _wave_service(
    kern, H, R, E, base, conservative, rows_p, idxs, mask=None
) -> int:
    """One sweep of a wave plan, PR 5 semantics: rows touching distinct
    indices execute together; same-index rows execute in successive
    waves in pop order. ``rows_p`` is the concatenation, in epoch order,
    of per-pipeline pop-ordered chunks; one index maps to one pipeline
    within an epoch and pops rise strictly across epochs, so a stable
    sort by index keeps every index's rows in pop order and a row's
    wave is its occurrence rank there. When ``mask`` is given (trace
    reconstruction), the rows whose conservative access wasted a slot
    are flagged in it."""
    n = rows_p.shape[0]
    bounds = (0, n)  # fast path: no index repeats in the sweep -> one wave
    if n > 1 and int(np.bincount(idxs).max()) > 1:
        # Indices fit the array's size: a 16-bit key sorts by radix.
        key = idxs.astype(np.min_scalar_type(R[base].shape[0]))
        order = np.argsort(key, kind="stable")
        sorted_idx = key[order]
        new_group = np.empty(n, dtype=bool)
        new_group[0] = True
        new_group[1:] = sorted_idx[1:] != sorted_idx[:-1]
        pos = np.arange(n)
        rank = pos - np.maximum.accumulate(np.where(new_group, pos, 0))
        # One stable sort by occurrence rank lays the waves out as
        # consecutive slices (a per-wave mask would re-scan every row).
        rows_p = rows_p[order[np.argsort(rank, kind="stable")]]
        bounds = np.concatenate(([0], np.cumsum(np.bincount(rank)))).tolist()
    wasted = 0
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        sel = rows_p[lo:hi]
        if conservative:
            lane = np.zeros(hi - lo, dtype=bool)
            kern.fn(H, R, E, sel, {base: lane})
            if mask is not None:
                mask[sel[~lane]] = True
            wasted += int(hi - lo - np.count_nonzero(lane))
        else:
            kern.fn(H, R, E, sel)
    return wasted


def _column(v, n: int, perm: Optional[np.ndarray]) -> np.ndarray:
    """Operand ``v`` (an int or a row column) as a fresh int64[n] in
    ``perm`` order."""
    if isinstance(v, int):
        return np.full(n, v, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    return v[perm] if perm is not None else v.copy()


def _wrap32(v: np.ndarray) -> np.ndarray:
    return ((v + 2147483648) & 4294967295) - 2147483648


def _scan_service(
    plan, rows_p, pops, dest, acc_idx, H, E, R, mask=None
) -> int:
    """One sweep of a scan-shaped plan: each row sets its register slot
    to ``wrap(a*x + b)`` (``plan.scan``), so a slot's chain of rows is a
    prefix sum of ``b`` seeded from the slot and restarted at ``a == 0``
    rows. The sums are int64 and wrapped once: that equals the serial
    chain because every value already lies in int32 range and wrapping
    commutes with addition. Work a stage does not need is skipped: with
    ``a`` always 1 and nothing published the order of rows is
    irrelevant and the sweep is ``R[i] = wrap(R[i] + sum(b))`` per slot
    (a ``bincount`` for a constant ``b``), and only a publishing stage
    runs a kernel over its rows — once, given the value each row's load
    saw. Returns the wasted-slot count, which a conservative plan reads
    off its guard column (flagging those rows in ``mask`` when given)."""
    scan = plan.scan
    reg = R[plan.base]
    size = reg.shape[0]
    summed = scan.a == 1 and scan.publish is None
    rows = rows_p
    if plan.category == "serial" and not summed:
        rows = rows_p[np.lexsort((dest[rows_p], pops))]
    n = rows.shape[0]
    a, b, access, index = scan.a, scan.b, scan.access, scan.index
    if scan.coef is not None:
        a, b, access, index = scan.coef(H, E, rows)
        a, b = (int(v) if np.ndim(v) == 0 else v for v in (a, b))
    wasted = 0
    if plan.conservative:
        lane = np.broadcast_to(np.asarray(access) != 0, (n,))
        wasted = n - int(np.count_nonzero(lane))
        if mask is not None:
            mask[rows[~lane]] = True
    idx = None
    if isinstance(scan.index, int):
        slot = scan.index % size
    elif plan.category == "wave":
        idx = acc_idx[rows]  # Phase A resolved the same operand
    else:
        idx = np.asarray(index, dtype=np.int64) % size
    if summed:
        if idx is None:
            total = n * b if isinstance(b, int) else int(np.sum(b))
            reg[slot] = _to_signed32(int(reg[slot]) + total)
        elif isinstance(b, int):
            counts = np.bincount(idx, minlength=size)
            hit = np.flatnonzero(counts)
            reg[hit] = _wrap32(reg[hit] + counts[hit] * b)
        else:
            order = np.argsort(idx, kind="stable")
            idx = idx[order]
            starts = np.flatnonzero(np.r_[True, idx[1:] != idx[:-1]])
            hit = idx[starts]
            reg[hit] = _wrap32(reg[hit] + np.add.reduceat(b[order], starts))
        return wasted

    # Group the rows by slot. Within a wave plan's concatenation a
    # slot's rows are in pop order, and a serial plan's rows are in
    # service order already, so a stable sort keeps each chain's order.
    first = np.zeros(n, dtype=bool)
    first[0] = True
    perm = None
    if idx is None:
        seed = reg[slot]
    else:
        perm = np.argsort(idx.astype(np.min_scalar_type(size)), kind="stable")
        idx = idx[perm]
        rows = rows[perm]
        np.not_equal(idx[1:], idx[:-1], out=first[1:])
        seed = reg[idx[first]]
    c = _column(b, n, perm)
    if isinstance(a, int) and a == 1:
        restart = first
        c[first] += seed
    else:
        a = _column(a, n, perm)
        restart = first | (a == 0)
        c[first] += np.where(a[first] != 0, seed, 0)
    total = np.cumsum(c)
    starts = np.flatnonzero(restart)
    before = (total[starts] - c[starts])[np.cumsum(restart) - 1]
    after = _wrap32(total - before)
    if scan.publish is not None:
        x = np.empty(n, dtype=np.int64)
        x[1:] = after[:-1]
        x[first] = seed
        scan.publish(H, E, rows, x)
    if idx is None:
        reg[slot] = after[-1]
    else:
        last = np.empty(n, dtype=bool)
        last[-1] = True
        last[:-1] = first[1:]
        reg[idx[last]] = after[last]
    return wasted


def execute_epoch_service(
    switch,
    streamer: EpochStreamer,
    chunks: List[List[Tuple[np.ndarray, np.ndarray]]],
    H: Dict,
    E: Dict,
    R: Dict,
    profiler=None,
    wasted_out: Optional[List[Optional[np.ndarray]]] = None,
) -> int:
    """Phase B: service what Phase A queued since the last sweep —
    ``chunks[pi]`` is plan ``pi``'s :attr:`EpochStreamer.unserviced`
    list, one ``(rows, pops)`` chunk per epoch in epoch order — as one
    sweep: each plan's chunks concatenated and run in one pass, plan
    after plan. Only Phase A needs the epoch boundaries (the remap reads
    counters there); the sweep equals servicing epoch by epoch because

    * pops rise strictly across epochs, so a stable sort by index (wave
      plans) and ``lexsort((dest, pops))`` (serial plans) over the
      concatenation visit every register slot in the scalar engines'
      global (tick, pipeline) service order;
    * a register array is touched at one plan stage only (construction
      rejects anything else), so running plan *p* over every epoch
      before plan *p+1* reorders only independent work;
    * a row's plan-*p* pop lies in the same or an earlier epoch than its
      plan-*(p+1)* pop, so its ``E`` temps are written before they are
      read.

    Mutates ``H``/``E``/``R`` in place and returns the sweep's
    wasted-slot count. ``profiler`` (a
    :class:`~repro.obs.profiler.PhaseProfiler`) receives per-stage
    timings tagged with the tier that ran (``scan`` for a scan-shaped
    plan, ``njit`` | ``python`` for the fused kernel, ``numpy`` for the
    wave decomposition) and the
    number of epoch chunks the pass covered, so ``calls`` counts
    (epoch, plan) chunks whatever the sweep width; ``wasted_out`` is a
    per-plan list of bool row masks the trace reconstruction needs — a
    plan with a mask has the rows whose conservative access wasted a
    slot flagged in it, by the same executor that runs without one.
    """
    vplans = switch._vplans
    wasted = 0
    for pi, pieces in enumerate(chunks):
        if not pieces:
            continue
        plan = vplans[pi]
        mask = wasted_out[pi] if wasted_out is not None else None
        t0 = perf_counter() if profiler is not None else 0.0
        rows_p = np.concatenate([c[0] for c in pieces])
        pops = np.concatenate([c[1] for c in pieces])
        tier = None
        # 'none' (flow-order arrays, kernel-free stages): the FIFO
        # timing is the whole effect; nothing to execute.
        if plan.scan is not None:
            # Read-add-write and predicated-write stages, wave or serial,
            # jitted or not: one prefix pass per register slot.
            wasted += _scan_service(
                plan, rows_p, pops, streamer.dest[pi], streamer.acc_idx[pi],
                H, E, R, mask,
            )
            tier = "scan"
        elif plan.category != "none":
            track = plan.conservative and not plan.multi
            nkern = _fused_kernel(
                switch, plan.stage, plan.base if track else None
            )
            if plan.category == "serial" or nkern.jitted:
                # Serialized rows (pinned or co-staged arrays, constant
                # or in-stage indexes) always; a wave plan only when
                # the kernel is jitted — a plain-Python per-row loop
                # loses to the wave decomposition on wave-sized chunks.
                order = rows_p[np.lexsort((streamer.dest[pi][rows_p], pops))]
                got = _fused_service(nkern, order, H, E, R, mask)
                tier = "njit" if nkern.jitted else "python"
            else:
                idxs = streamer.acc_idx[pi][rows_p]
                got = _wave_service(
                    switch._vkernels[plan.stage], H, R, E, plan.base,
                    plan.conservative, rows_p, idxs, mask,
                )
                tier = "numpy"
            wasted += got
        if profiler is not None and tier is not None:
            profiler.record_kernel(
                plan.stage, tier, perf_counter() - t0, len(pieces)
            )
        for u in switch._transit_after[pi]:
            switch._vkernels[u].fn(H, R, E, rows_p)
    return wasted
