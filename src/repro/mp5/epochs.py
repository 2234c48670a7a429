"""Epoch schedule construction and service execution.

The batch engine's run splits into two exact phases, hinging on one
structural fact the scalar engines establish: **every access index is
resolved at the resolution stage** (stage 0 plus the stateless transit
stages before the first plan stage), which contains no stateful
instructions. Register *values* therefore never influence the timing
layer — injection ticks, FIFO group membership, pop chains, access and
in-flight counters, and every remap decision derived from them.

* **Phase A** (:class:`EpochStreamer`) — the sequential sweep over
  remap epochs, now *incremental*: :meth:`EpochStreamer.ingest`
  extends the injection recurrence as packets arrive, and
  :meth:`EpochStreamer.advance_epoch` processes one epoch cut as soon
  as the ingest watermark proves its arrivals are complete (every
  future packet has ``inj >= ceil(arrival) >= watermark > cut``). It
  injects packets, maintains the per-(plan, pipeline) FIFO groups and
  their pop chains (``pop[j] = max(pop[j-1] + 1, insert[j])``), drives
  the real :class:`~repro.mp5.sharding.ShardingRuntime` at every
  boundary, and records *who pops when, from which pipeline* — but
  performs no stateful service. Once the sweep is done,
  :meth:`EpochStreamer.finalize` snapshots it as an
  :class:`EpochSchedule`, the run's task DAG — per-plan pop streams in
  epoch order, independent of feed chunking and of how Phase B executes.

* **Phase B** (:func:`execute_epoch_service`) — replays each pump's
  steps against register state: every epoch one
  :meth:`~repro.mp5.vector.VectorSwitch.pump` closed is serviced in one
  sweep, one pass per plan over the plan's chunks concatenated in epoch
  order. An offline run is one sweep at the drain; ``pump(max_steps=1)``
  is epoch-by-epoch service. Only Phase A needs the boundaries (the
  remap reads counters there); a sweep of any width visits every slot
  in the scalar engines' global (tick, pipeline) service order, for the
  three reasons the function's docstring gives. A plan's sweep admits
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


class _Group:
    """One (plan, pipeline) FIFO group: members in packet-id order."""

    __slots__ = ("members", "count", "ptr", "last_pop")

    def __init__(self, capacity: int = 0):
        self.members = np.empty(capacity, dtype=np.int64)
        self.count = 0  # filled members (membership fixed at inject)
        self.ptr = 0  # members already popped
        self.last_pop = -1

    def push(self, rows: np.ndarray) -> None:
        need = self.count + rows.shape[0]
        if need > self.members.shape[0]:
            # Growth copies; popped slices handed out earlier keep the
            # old buffer alive and are never rewritten.
            self.members = _grown(self.members, need)
        self.members[self.count : need] = rows
        self.count = need


class EpochSchedule:
    """Phase A's output: the timing of one run, service still pending.

    ``chunks[pi]`` holds plan ``pi``'s pop stream as per-epoch
    ``(rows, pops)`` pairs in epoch order; the popped pipeline of a row
    is ``dest[pi][row]`` (group membership is fixed at inject). The
    remaining arrays are the per-packet timeline the statistics
    reconstruction consumes.
    """

    __slots__ = (
        "inj",
        "entry_pipe",
        "acc_idx",
        "dest",
        "ins_tick",
        "pop_tick",
        "groups",
        "chunks",
        "egr_tick",
        "egr_pipe",
        "injected",
        "egr_assigned",
        "last_egress",
        "epochs",
        "cut_limit",
        "remap_records",
    )

    def dag_signature(self) -> str:
        """Digest of the task DAG — everything Phase B consumes. Equal
        signatures mean equal service work however it is executed
        (the determinism contract's test hook)."""
        digest = hashlib.sha256()
        digest.update(np.int64(self.epochs).tobytes())
        digest.update(np.int64(self.injected).tobytes())
        for pi, pieces in enumerate(self.chunks):
            digest.update(np.int64(len(pieces)).tobytes())
            for rows, pops in pieces:
                digest.update(rows.tobytes())
                digest.update(pops.tobytes())
                digest.update(self.dest[pi][rows].tobytes())
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
      ``inj <= cut`` and pop every FIFO chain through it. Mid-stream
      this requires the cut to be *closed*: ``cut < watermark`` proves
      no future packet can inject at or before it (monotone feeds give
      ``inj >= ceil(arrival) >= watermark``).
    * **decide** — at the boundary, re-create the scalar run loop's
      liveness test. ``injected > egr_assigned`` and
      ``last_egress >= boundary`` are exact once the content is
      processed; ``inj_ptr < n_fed`` is the one clause that depends on
      packets not yet fed, so a boundary that looks dead mid-stream
      *stalls* (no remap, no progress) until either a later feed
      revives it or the drain (``final=True``) confirms it.

    With remapping off there are no boundaries: the single closed-form
    cut is only provably complete at drain, so nothing advances
    mid-stream and memory-bounded streaming requires remapping on.

    The per-packet arrays grow by doubling; every value is written by
    the same expressions in the same order whenever its cut closes, so
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
        self.groups = [
            [_Group() for _ in range(self.k)] for _ in self.vplans
        ]
        self.chunks: List[List[Tuple[np.ndarray, np.ndarray]]] = [
            [] for _ in self.vplans
        ]
        self.remap_records: List[Tuple[int, int]] = []

        self.inj_ptr = 0
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
        monotone-feed contract. Only the timing recurrence runs here;
        injection itself happens when a cut that covers it is processed.
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

    # -- the sweep ------------------------------------------------------

    def _process_inject(self, rows: np.ndarray) -> None:
        H, E, R = self.H, self.E, self.R
        cfg = self.cfg
        vplans = self.vplans
        sharder = self.sharder
        inj = self.inj
        cut_limit = self.cut_limit
        k = self.k
        # The resolution stage and pre-plan transit stages are
        # stateless by admission, so running them here — before any
        # service executes — reads and writes only the rows' own
        # columns, exactly as the interleaved engine did.
        kern0 = self.kernels[0]
        if kern0 is not None:
            kern0.fn(H, R, E, rows)
        for u in self.transit_after_inject:
            self.kernels[u].fn(H, R, E, rows)
        t_rows = inj[rows]
        if not vplans:
            et = t_rows + (self.depth - 1)
            rows_e = rows
            if cut_limit is not None:
                keep = et <= cut_limit
                rows_e = rows[keep]
                et = et[keep]
            if rows_e.size:
                self.egr_tick[rows_e] = et
                self.egr_pipe[rows_e] = self.entry_pipe[rows_e]
                self.egr_assigned += rows_e.shape[0]
                self.last_egress = max(self.last_egress, int(et[-1]))
            return
        for pi, plan in enumerate(vplans):
            state = sharder.arrays[plan.base]
            if plan.is_flow:
                # Raw keys: only their low 32 bits reach the hash's
                # first multiply, whose int64 product wraps mod 2**64.
                keys = H[cfg.flow_order_field][rows]
                iv = _flow_hash(keys, 0x5F0E) % plan.size
            elif plan.has_index:
                op = plan.index_operand
                if isinstance(op, Const):
                    iv = np.full(
                        rows.shape[0], op.value % plan.size, dtype=np.int64
                    )
                else:
                    iv = E[op.name][rows] % plan.size
            else:
                iv = None
            if iv is not None:
                counts = np.bincount(iv, minlength=plan.size)
                state.access_counts += counts
                state.in_flight += counts.astype(state.in_flight.dtype)
                dv = state.index_to_pipeline[iv].astype(np.int64)
                self.acc_idx[pi][rows] = iv
            else:
                dv = np.full(
                    rows.shape[0],
                    int(state.index_to_pipeline[0]),
                    dtype=np.int64,
                )
            self.dest[pi][rows] = dv
            if k == 1:
                self.groups[pi][0].push(rows)
            else:
                for pipe in range(k):
                    sel = rows[dv == pipe]
                    if sel.size:
                        self.groups[pi][pipe].push(sel)
        self.ins_tick[0][rows] = t_rows + (vplans[0].stage - 1)

    def _process_cut(
        self, cut: int
    ) -> List[Tuple[int, np.ndarray, np.ndarray]]:
        """Inject and pop everything scheduled at or before ``cut``.
        Returns the epoch's service step: per-plan ``(pi, rows, pops)``
        entries in plan order — :func:`execute_epoch_service` consumes
        a list of them."""
        vplans = self.vplans
        k = self.k
        cut_limit = self.cut_limit
        step: List[Tuple[int, np.ndarray, np.ndarray]] = []

        hi = int(
            np.searchsorted(self.inj[: self.n_fed], cut, side="right")
        )
        if hi > self.inj_ptr:
            rows = np.arange(self.inj_ptr, hi, dtype=np.int64)
            self.inj_ptr = hi
            self.injected += rows.shape[0]
            self._process_inject(rows)

        for pi, plan in enumerate(vplans):
            ipt = self.ins_tick[pi]
            popped = []
            for pipe in range(k):
                g = self.groups[pi][pipe]
                avail = g.count - g.ptr
                if avail <= 0:
                    continue
                max_pops = cut - g.last_pop
                if max_pops <= 0:
                    continue
                take = min(avail, max_pops)
                seg_rows = g.members[g.ptr : g.ptr + take]
                seg_ins = ipt[seg_rows]
                unknown = np.nonzero(seg_ins < 0)[0]
                if unknown.size:
                    take = int(unknown[0])
                    if take == 0:
                        continue
                    seg_rows = seg_rows[:take]
                    seg_ins = seg_ins[:take]
                j = np.arange(seg_rows.shape[0], dtype=np.int64)
                base = np.maximum(seg_ins, g.last_pop + 1)
                pops = j + np.maximum.accumulate(base - j)
                cnt = int(np.searchsorted(pops, cut, side="right"))
                if cnt == 0:
                    continue
                rows_p = seg_rows[:cnt]
                pops = pops[:cnt]
                g.ptr += cnt
                g.last_pop = int(pops[-1])
                self.pop_tick[pi][rows_p] = pops
                popped.append((rows_p, pops))
            if not popped:
                continue
            if len(popped) == 1:
                rows_p, pops = popped[0]
            else:
                rows_p = np.concatenate([c[0] for c in popped])
                pops = np.concatenate([c[1] for c in popped])
            self.chunks[pi].append((rows_p, pops))
            step.append((pi, rows_p, pops))
            if plan.has_index and not plan.is_flow:
                state = self.sharder.arrays[plan.base]
                state.in_flight -= np.bincount(
                    self.acc_idx[pi][rows_p], minlength=plan.size
                ).astype(state.in_flight.dtype)
            if pi + 1 < self.nplans:
                delta = vplans[pi + 1].stage - plan.stage
                self.ins_tick[pi + 1][rows_p] = pops + delta
            else:
                # The run loop breaks before tick max_ticks, so an
                # egress scheduled past the cutoff never executes: the
                # packet is stuck in the tail.
                et = pops + (self.depth - plan.stage)
                rows_e = rows_p
                if cut_limit is not None:
                    keep = et <= cut_limit
                    rows_e = rows_p[keep]
                    et = et[keep]
                if rows_e.size:
                    self.egr_tick[rows_e] = et
                    self.egr_pipe[rows_e] = self.dest[pi][rows_e]
                    self.egr_assigned += rows_e.shape[0]
                    self.last_egress = max(
                        self.last_egress, int(et.max())
                    )
        self.executed_through = cut
        return step

    def can_advance(self, watermark: Optional[int]) -> bool:
        """True iff :meth:`advance_epoch` with this watermark (and
        ``final=False``) would make progress — the daemon's
        work-available probe. Mirrors the advance gates exactly, so a
        True always buys state change and a False never spins."""
        if self.done:
            return False
        if self._phase == "decide":
            boundary = self._boundary
            if self.cut_limit is not None and boundary > self.cut_limit:
                return True  # one advance marks the sweep done
            return (
                self.inj_ptr < self.n_fed
                or self.injected > self.egr_assigned
                or self.last_egress >= boundary
            )
        if not self.remap_on:
            return False  # no boundaries: only the drain closes the cut
        cut = self._epoch_start + self.period
        if self.cut_limit is not None and self.cut_limit < cut:
            cut = self.cut_limit
        return watermark is not None and cut < watermark

    def advance_epoch(
        self, watermark: Optional[int] = None, final: bool = False
    ) -> Optional[List[Tuple[int, np.ndarray, np.ndarray]]]:
        """Run the sweep until one epoch's service step is produced, the
        sweep completes, or it must wait (watermark too low / stalled
        boundary). Returns the step, or None (check :attr:`done` to
        tell completion from a stall). ``final=True`` asserts no
        further packets will be fed — the drain."""
        while True:
            if self.done:
                return None
            if self._phase == "decide":
                boundary = self._boundary
                if (
                    self.cut_limit is not None
                    and boundary > self.cut_limit
                ):
                    self.done = True
                    return None
                # The scalar run loop is alive at the boundary tick iff
                # packets are still pending injection or in flight
                # there — only then does that tick's remap execute.
                alive = (
                    self.inj_ptr < self.n_fed
                    or self.injected > self.egr_assigned
                    or self.last_egress >= boundary
                )
                if alive:
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
                    return None
                # Dead as far as fed packets go, but a later feed can
                # revive the boundary (the scalar test is inj_ptr < N
                # over the *whole* trace): stall until feed or drain.
                return None

            boundary = (
                (self._epoch_start + self.period) if self.remap_on else None
            )
            cut = _FAR
            if boundary is not None:
                cut = boundary
            if self.cut_limit is not None and self.cut_limit < cut:
                cut = self.cut_limit
            if not final:
                # Mid-stream the cut must be closed: a future packet
                # has inj >= ceil(arrival) >= watermark, so cut <
                # watermark proves no arrival below it is missing.
                if boundary is None or watermark is None or cut >= watermark:
                    return None
            step = self._process_cut(cut)
            if not self.remap_on:
                self.done = True
                return step or None
            if self.cut_limit is not None and boundary > self.cut_limit:
                self.done = True
                return step or None
            self._phase = "decide"
            self._boundary = boundary
            if step:
                return step
            # Empty epoch: fall through to the boundary decision.

    def finalize(self) -> EpochSchedule:
        """Snapshot the finished sweep as an :class:`EpochSchedule`
        (capacity arrays trimmed to the fed prefix; chunk and group
        objects shared, not copied)."""
        n = self.n_fed
        sched = EpochSchedule()
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
        sched.groups = self.groups
        sched.chunks = self.chunks
        sched.egr_tick = self.egr_tick[:n]
        sched.egr_pipe = self.egr_pipe[:n]
        sched.injected = self.injected
        sched.egr_assigned = self.egr_assigned
        sched.last_egress = self.last_egress
        sched.epochs = self.epochs
        return sched


# ---------------------------------------------------------------------------
# Phase B: service execution
# ---------------------------------------------------------------------------


def program_cache(program, attr: str) -> Dict:
    """The kernel cache dict stored on ``program`` under ``attr``:
    compilation is deterministic in the program, and sweeps construct a
    fresh switch per run over one compiled program."""
    cache = getattr(program, attr, None)
    if cache is None:
        cache = {}
        try:
            setattr(program, attr, cache)
        except AttributeError:
            pass
    return cache


def _fused_kernel(switch, stage: int, track_reg: Optional[str]):
    """Fused per-row kernel for one stage, cached on the program."""
    cache = program_cache(switch.program, "_native_kernel_cache")
    key = (stage, track_reg)
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
    steps: List[List[Tuple[int, np.ndarray, np.ndarray]]],
    H: Dict,
    E: Dict,
    R: Dict,
    profiler=None,
    wasted_out: Optional[List[Optional[np.ndarray]]] = None,
) -> int:
    """Phase B: service the steps of consecutive epochs, in the order
    :meth:`EpochStreamer.advance_epoch` emitted them, as one sweep — each
    plan's chunks concatenated in epoch order and run in one pass, plan
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
    pieces: List[List[Tuple[np.ndarray, np.ndarray]]] = [[] for _ in vplans]
    for step in steps:
        for pi, rows_p, pops in step:
            pieces[pi].append((rows_p, pops))
    wasted = 0
    for pi, chunks in enumerate(pieces):
        if not chunks:
            continue
        plan = vplans[pi]
        mask = wasted_out[pi] if wasted_out is not None else None
        t0 = perf_counter() if profiler is not None else 0.0
        rows_p = np.concatenate([c[0] for c in chunks])
        pops = np.concatenate([c[1] for c in chunks])
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
                plan.stage, tier, perf_counter() - t0, len(chunks)
            )
        for u in switch._transit_after[pi]:
            switch._vkernels[u].fn(H, R, E, rows_p)
    return wasted
