"""Dynamic state sharding: the index-to-pipeline map and its runtime (D2, §3.4).

For every register array of size N, each pipeline physically holds an
N-entry copy, but each index is *active* in exactly one pipeline. The
index-to-pipeline map tracks the active location; it is replicated in
every pipeline (packets only read it) and updated atomically by the
background remap algorithm of Figure 6:

    every t clock cycles, per register array:
      find pipelines H (highest) and L (lowest aggregate access count)
      C = (c_max - c_min) / 2
      find index i in H with the largest access counter < C
      if it exists and its in-flight counter is 0:
          move state at i from H to L; update the map

The runtime also keeps, per index, a packet **access counter**
(incremented at address resolution, reset each epoch) and an
**in-flight counter** (incremented at resolution, decremented when the
access completes) that prevents remapping an index with packets already
steered toward its old location. Every index an epoch counts joins that
epoch's *touched* set, and the remap reads and resets only those: an
index outside it has a zero counter, so the heuristic's only use for it
is as the fallback candidate — the lowest idle index on the busiest
pipeline — found by a scan from index 0 that stops at the first hit.

The **optimal** policy used by the ideal baseline replaces the
single-move heuristic with a longest-processing-time (LPT) repack of all
indexes each epoch — the bin-packing relaxation §3.4 says is NP-hard to
do exactly but that LPT approximates within 4/3.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..errors import ConfigError


@dataclass
class ShardedArray:
    """Runtime sharding state for one register array."""

    name: str
    size: int
    shardable: bool
    pin_key: str
    index_to_pipeline: np.ndarray  # int32[size]
    access_counts: np.ndarray  # int64[size], reset each epoch
    in_flight: np.ndarray  # int32[size]
    moves: int = 0
    # Indexes counted this epoch: one at a time by the scalar engines
    # (note_resolved), in blocks by the vector engine (note_counts).
    touched: Set[int] = field(default_factory=set)
    touched_blocks: List[np.ndarray] = field(default_factory=list)

    def pipeline_of(self, index: Optional[int]) -> int:
        if index is None:
            # Array-level placement (stateful index): every slot lives in
            # the same pipeline, use slot 0 as the representative.
            return int(self.index_to_pipeline[0])
        return int(self.index_to_pipeline[index % self.size])


_NO_INDEXES = np.zeros(0, dtype=np.int64)


class ShardingRuntime:
    """Owns the maps and counters for every array of a program.

    The D2 runtime: per-array index-to-pipeline maps, access counters,
    and in-flight counters. Every ``remap_period`` ticks the Figure 6
    heuristic (or the iterated-greedy ``optimal`` variant) rebalances
    hot indices; only indices with zero packets in flight may move, so
    steering decisions already made stay valid (C1 is never broken by a
    remap). Under faults the same machinery runs *emergency* remaps —
    evacuating a failed pipeline's indices to healthy ones with
    drain/retry/backoff (see :mod:`repro.faults`).
    """

    def __init__(
        self,
        arrays: Sequence[Tuple[str, int, bool, str]],
        num_pipelines: int,
        initial: str = "roundrobin",
        rng: Optional[np.random.Generator] = None,
    ):
        """``arrays`` is a sequence of (name, size, shardable, pin_key).

        ``initial`` is 'roundrobin' or 'random'; non-shardable arrays are
        placed whole on one pipeline, arrays sharing a pin_key on the
        same one.
        """
        if num_pipelines < 1:
            raise ConfigError("need at least one pipeline")
        if initial not in ("roundrobin", "random"):
            raise ConfigError(f"unknown initial sharding {initial!r}")
        self.num_pipelines = num_pipelines
        self.rng = rng or np.random.default_rng(0)
        self.arrays: Dict[str, ShardedArray] = {}
        pin_assignment: Dict[str, int] = {}
        next_pin = 0
        for name, size, shardable, pin_key in arrays:
            if shardable and num_pipelines > 1:
                if initial == "roundrobin":
                    mapping = np.arange(size, dtype=np.int32) % num_pipelines
                else:
                    mapping = self.rng.integers(
                        0, num_pipelines, size=size, dtype=np.int32
                    )
            else:
                if pin_key not in pin_assignment:
                    pin_assignment[pin_key] = next_pin % num_pipelines
                    next_pin += 1
                mapping = np.full(size, pin_assignment[pin_key], dtype=np.int32)
            self.arrays[name] = ShardedArray(
                name=name,
                size=size,
                shardable=shardable and num_pipelines > 1,
                pin_key=pin_key,
                index_to_pipeline=mapping,
                access_counts=np.zeros(size, dtype=np.int64),
                in_flight=np.zeros(size, dtype=np.int32),
            )

    # ------------------------------------------------------------------
    # Hot path: resolution / completion accounting
    # ------------------------------------------------------------------

    def lookup(self, array: str, index: Optional[int]) -> int:
        return self.arrays[array].pipeline_of(index)

    def note_resolved(self, array: str, index: Optional[int]) -> int:
        """Account a resolved access; returns the destination pipeline."""
        state = self.arrays[array]
        if index is None:
            return state.pipeline_of(None)
        index %= state.size
        state.access_counts[index] += 1
        state.in_flight[index] += 1
        state.touched.add(index)
        return int(state.index_to_pipeline[index])

    def note_counts(self, array: str, counts: np.ndarray) -> None:
        """Account a block of resolved accesses as per-index counts (a
        bincount over the whole array): the access counters grow by it
        and its nonzero indexes join the epoch's touched set. In-flight
        counters are the caller's."""
        state = self.arrays[array]
        state.access_counts += counts
        state.touched_blocks.append(counts.astype(bool).nonzero()[0])

    def note_completed(self, array: str, index: Optional[int]) -> None:
        """Account a completed access (in-flight decrement)."""
        state = self.arrays[array]
        if index is None:
            return
        index %= state.size
        if state.in_flight[index] > 0:
            state.in_flight[index] -= 1

    # ------------------------------------------------------------------
    # Background remapping
    # ------------------------------------------------------------------

    @staticmethod
    def _touched_indexes(state: ShardedArray) -> np.ndarray:
        """The distinct indexes counted this epoch, ascending. Every
        index with a nonzero access counter is among them."""
        blocks = state.touched_blocks
        if state.touched:
            block = np.fromiter(state.touched, np.int64, len(state.touched))
            block.sort()
            blocks.append(block)
            state.touched.clear()
        if len(blocks) > 1:
            seen = np.zeros(state.size, dtype=bool)
            for block in blocks:
                seen[block] = True
            blocks[:] = [seen.nonzero()[0]]
        return blocks[0] if blocks else _NO_INDEXES

    def _touched_load(self, state: ShardedArray):
        """``(touched, their pipelines, their counts, per-pipeline
        load)``. The load is float64[k]: the weighted bincount is exact
        while an epoch's total stays below 2**53."""
        touched = self._touched_indexes(state)
        dest = state.index_to_pipeline[touched]
        weight = state.access_counts[touched]
        load = np.bincount(dest, weights=weight, minlength=self.num_pipelines)
        return touched, dest, weight, load

    def pipeline_load(self, state: ShardedArray) -> np.ndarray:
        """This epoch's access count per pipeline, int64[k]."""
        return self._touched_load(state)[3].astype(np.int64)

    @staticmethod
    def _first_idle(state: ShardedArray, pipe: int) -> Optional[int]:
        """The lowest index on ``pipe`` with no access this epoch and
        none in flight, scanning from index 0 in growing blocks (it is
        usually found in the first)."""
        lo, step = 0, 64
        while lo < state.size:
            hi = lo + step
            idle = state.index_to_pipeline[lo:hi] == pipe
            idle &= state.access_counts[lo:hi] == 0
            idle &= state.in_flight[lo:hi] == 0
            at = int(idle.argmax())
            if idle[at]:
                return lo + at
            lo, step = hi, step * 4
        return None

    def remap_heuristic(self, array: str) -> bool:
        """One invocation of the Figure 6 heuristic. Returns True if an
        index moved.

        The candidate is the heaviest touched index on the busiest
        pipeline whose counter is below half the load gap and that has
        nothing in flight (ties go to the lowest index); failing that,
        the lowest idle index there — the index a sweep of the whole
        array picks, since every untouched counter is zero."""
        state = self.arrays[array]
        if not state.shardable:
            return False
        touched, dest, weight, load = self._touched_load(state)
        high = int(load.argmax())
        low = int(load.argmin())
        gap = load[high] - load[low]
        if not gap:
            return False
        eligible = (
            (dest == high)
            & (weight < gap / 2)
            & (state.in_flight[touched] == 0)
        )
        # Touched counters are >= 1, so the heaviest eligible one scores
        # above every ineligible zero.
        at = int((weight * eligible).argmax())
        if eligible[at]:
            best = int(touched[at])
        else:
            best = self._first_idle(state, high)
            if best is None:
                return False
        # Atomic move: the register value itself lives in the global
        # store (exactly one copy is active), so the move is purely a
        # map update — mirroring the single-cycle state move in §3.4.
        state.index_to_pipeline[best] = low
        state.moves += 1
        return True

    def remap_optimal(self, array: str) -> bool:
        """Near-optimal rebalance for the ideal baseline (§4.3.3).

        Iterates the greedy max-to-min move (the Figure 6 step) until no
        move narrows the load gap, instead of performing a single move per
        epoch. This converges to a locally optimal packing while keeping
        the mapping sticky — a full repack from scratch would thrash the
        mapping on noisy per-epoch counters. Only indexes with zero
        in-flight packets move, same as the heuristic.
        """
        state = self.arrays[array]
        if not state.shardable:
            return False
        # Only touched indexes have a nonzero counter, so only they move.
        touched, dest, weight, per_pipe = self._touched_load(state)
        per_pipe = per_pipe.astype(np.int64)
        idle = state.in_flight[touched] == 0
        moved_any = False
        for _ in range(state.size):
            high = int(per_pipe.argmax())
            low = int(per_pipe.argmin())
            gap = int(per_pipe[high]) - int(per_pipe[low])
            if high == low or gap <= 0:
                break
            # Any index lighter than the gap strictly narrows it; pick the
            # heaviest such (the biggest single-step improvement).
            eligible = (dest == high) & (weight < gap) & (weight > 0) & idle
            if not eligible.any():
                break
            at = np.flatnonzero(eligible)[weight[eligible].argmax()]
            moved = int(weight[at])
            state.index_to_pipeline[touched[at]] = low
            dest[at] = low
            per_pipe[high] -= moved
            per_pipe[low] += moved
            moved_any = True
        if moved_any:
            state.moves += 1
        return moved_any

    def end_epoch(self, algorithm: str = "heuristic") -> int:
        """Run the configured remap on every array, then reset the
        touched access counters for the next epoch. Returns the number
        of arrays whose mapping changed."""
        changed = 0
        for name, state in self.arrays.items():
            if algorithm == "heuristic":
                changed += bool(self.remap_heuristic(name))
            elif algorithm == "optimal":
                changed += bool(self.remap_optimal(name))
            elif algorithm == "none":
                pass
            else:
                raise ConfigError(f"unknown remap algorithm {algorithm!r}")
            state.access_counts[self._touched_indexes(state)] = 0
            state.touched_blocks.clear()
        return changed

    def emergency_remap(
        self, failed: int, healthy: Sequence[int]
    ) -> Tuple[int, int]:
        """Evacuate pipeline ``failed``: move every shardable index active
        there to the least-loaded pipeline in ``healthy``.

        The graceful-degradation path of :mod:`repro.faults` — unlike the
        Figure 6 heuristic this is not load balancing but evacuation, so
        it moves *all* of the failed pipeline's indices at once. The same
        safety rule applies: only indices with zero in-flight packets
        move (a packet already steered toward the old location must find
        its state there, or C1 breaks); the rest are *deferred* and the
        caller retries after its drain/backoff. Load ties break toward
        the lowest pipeline id and per-index loads update as indices
        land, so the result is deterministic and both engines agree.

        Non-shardable (pinned) arrays cannot be evacuated — their state
        has no per-index location freedom — and are left in place; their
        packets keep dropping for the fault's duration, which the drop
        accounting surfaces.

        Returns ``(moved, deferred)`` index counts.
        """
        targets = [p for p in sorted(set(healthy)) if p != failed]
        moved = deferred = 0
        if not targets:
            return 0, 0
        shardable = [s for s in self.arrays.values() if s.shardable]
        # Seed destination loads with the current epoch's access counts
        # so evacuated hot indices spread instead of piling on one pipe.
        # The heap's (load, pipeline) order is the tie rule.
        loads = [[0, p] for p in targets]
        for state in shardable:
            per_pipe = self.pipeline_load(state)
            for entry in loads:
                entry[0] += int(per_pipe[entry[1]])
        heapq.heapify(loads)
        for state in shardable:
            on_failed = np.flatnonzero(state.index_to_pipeline == failed)
            busy = state.in_flight[on_failed] > 0
            deferred += int(np.count_nonzero(busy))
            movers = on_failed[~busy]
            dests = []
            for weight in state.access_counts[movers].tolist():
                load, dest = loads[0]
                heapq.heapreplace(loads, [load + weight + 1, dest])
                dests.append(dest)
            state.index_to_pipeline[movers] = dests
            state.moves += len(dests)
            moved += len(dests)
        return moved, deferred

    # ------------------------------------------------------------------

    def total_moves(self) -> int:
        """Cumulative index moves across all arrays (what the metrics
        registry samples for the per-window remap-churn series)."""
        return sum(state.moves for state in self.arrays.values())

    def load_imbalance(self, array: str) -> float:
        """max/mean per-pipeline index-count ratio (diagnostics)."""
        state = self.arrays[array]
        counts = np.bincount(
            state.index_to_pipeline, minlength=self.num_pipelines
        ).astype(float)
        mean = counts.mean()
        return float(counts.max() / mean) if mean else 1.0

    def sram_overhead_bits(self) -> int:
        """SRAM cost of the maps/counters at 30 bits per index (§4.2:
        6 map + 16 access counter + 8 in-flight)."""
        return 30 * sum(state.size for state in self.arrays.values())
