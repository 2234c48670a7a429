"""Host-speed calibration.

This sandbox runs at two speeds, about 30% apart, and switches between
them at intervals from under a second to tens of seconds; CPU time moves
with wall time, on both cores. The median of a 12 s window of raw times
therefore depends on which level the window mostly caught: over ten runs
raw ``pkts_per_s`` spread 8-21% and ``cpu_s_per_mpkt`` 12-20%.

A fixed spin timed right before and right after a timed region moves
with the host the same way, so every host time the benchmark reports end
to end is scaled by ``SPIN_REFERENCE_S / mean(spin before, spin after)``:
the time the work would have taken on a host on which the spin takes
``SPIN_REFERENCE_S``. Measured over 12 s windows of one process, that
took the spread of the window medians from 6-24% raw to 2-6% on the
offline workloads and 3-9% on the served ones. Both commits of a
comparison are scaled by the same rule on the same host; the unscaled
throughput and the median spin are printed beside the scaled values.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import List

#: The spin's duration at this host's fast level.
SPIN_REFERENCE_S = 0.017
#: A spin younger than this is reused, which bounds the spins' cost for
#: the shortest iterations (a 46 ms segment) to about a third of the window.
RESPIN_AFTER_S = 0.1


def spin() -> float:
    """Integer arithmetic, then allocation and traversal of small dicts
    and tuples (the sink-heavy workloads track that part better). The
    collector is off inside the spin only, so that its length does not
    depend on how large the caller's heap is."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        for _ in range(10):  # in batches, to keep the spin's own footprint ~1 MB
            rows = [{"a": i, "b": (i, i + 1)} for i in range(5_000)]
            for row in rows:
                total += row["a"] + row["b"][1]
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


class HostClock:
    """Spins taken right around the timed regions of one run."""

    def __init__(self):
        self.spins: List[float] = []
        self._taken_at = float("-inf")

    def sample(self) -> float:
        """The spin's duration now; the last one if it is still fresh."""
        if time.perf_counter() - self._taken_at > RESPIN_AFTER_S:
            self.spins.append(spin())
            self._taken_at = time.perf_counter()
        return self.spins[-1]

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Scale for a time measured between two samples."""
        return SPIN_REFERENCE_S / ((before + after) / 2.0)

    def median_factor(self) -> float:
        return SPIN_REFERENCE_S / statistics.median(self.spins)
