"""Phase A's closed form against per-row oracles
(:class:`repro.mp5.epochs.EpochStreamer`).

* **injection** — row ``i`` enters pipeline ``i % k`` at the first tick
  at or after ``ceil(arrival)`` that follows the previous row of that
  pipeline. ``ingest`` computes every residue class in one running
  maximum and carries it across feed batches, so any chunking of the
  feed gives the per-row recurrence's ticks.
* **in flight** — the boundary remap is the only reader of the
  in-flight counters on this path. When it runs, an index's counter
  equals the rows injected by the cut whose pop at that array lies past
  it; the flow-order array's counts every row injected so far (its
  counters are never released).
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.mp5 import MP5Config, VectorSwitch
from repro.mp5.packet import DataPacket
from repro.workloads.synthetic import make_sensitivity_program, sensitivity_trace


@functools.lru_cache(maxsize=None)
def _program(num_stateful: int, size: int):
    return make_sensitivity_program(num_stateful, size)


def reference_inj(arrivals, k):
    """The injection tick of each row, one row at a time."""
    free = [0] * k
    out = []
    for i, arrival in enumerate(arrivals):
        tick = max(math.ceil(arrival), free[i % k])
        out.append(tick)
        free[i % k] = tick + 1
    return out


# Gaps between consecutive arrivals: ties, fractions and idle stretches.
GAPS = st.sampled_from([0.0, 0.0, 0.0, 0.1, 0.25, 0.5, 1.0, 1.75, 6.0])


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    k=st.sampled_from([1, 2, 3, 4, 8]),
    start=st.sampled_from([0.0, 0.5, 3.0]),
    gaps=st.lists(GAPS, min_size=1, max_size=90),
    sizes=st.lists(st.integers(1, 19), min_size=1, max_size=8),
)
@example(k=4, start=0.0, gaps=[0.0] * 11, sizes=[1])
@example(k=3, start=0.5, gaps=[0.0, 0.25] * 10, sizes=[5, 2, 7])
def test_ingest_matches_the_per_row_recurrence(k, start, gaps, sizes):
    """After every feed batch — chunk edges on and off multiples of k,
    single rows included — the injection ticks and entry pipelines of
    every row fed so far equal the per-row recurrence's."""
    arrivals = np.cumsum([start] + gaps).tolist()
    packets = [
        DataPacket(pkt_id=i, arrival=a, port=0, headers={"idx0": i % 16})
        for i, a in enumerate(arrivals)
    ]
    expected = reference_inj(arrivals, k)
    switch = VectorSwitch(_program(1, 16), MP5Config(num_pipelines=k))
    switch.start()
    streamer = switch._streamer
    lo, turn = 0, 0
    while lo < len(packets):
        hi = min(len(packets), lo + sizes[turn % len(sizes)])
        switch.feed(packets[lo:hi])
        assert streamer.inj[:hi].tolist() == expected[:hi]
        assert streamer.entry_pipe[:hi].tolist() == [i % k for i in range(hi)]
        lo, turn = hi, turn + 1


def _pending(schedule, pi: int, boundary: int) -> np.ndarray:
    """Rows injected by the cut at ``boundary`` whose pop at plan ``pi``
    lies past it (-1: past the run's last executable tick)."""
    pop = schedule.pop_tick[pi]
    return (schedule.inj <= boundary) & ((pop > boundary) | (pop < 0))


@pytest.mark.parametrize("chunk", [None, 37])
@pytest.mark.parametrize("max_ticks", [None, 130])
@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("algorithm", ["heuristic", "optimal"])
def test_in_flight_at_each_boundary_counts_the_pending_rows(
    algorithm, k, max_ticks, chunk
):
    """Snapshot every shardable array's in-flight counters as each
    boundary remap starts, on one feed or on 37-row chunks serviced
    epoch by epoch, and rebuild them from the finished schedule."""
    cfg = MP5Config(
        num_pipelines=k,
        remap_algorithm=algorithm,
        remap_period=20,
        flow_order_field="idx0",
        flow_order_size=32,
    )
    trace = sensitivity_trace(900, k, 2, 64, "skewed", seed=2)
    switch = VectorSwitch(_program(2, 64), cfg)
    sharder = switch.sharder
    end_epoch = sharder.end_epoch
    snapshots = []

    def spy(name):
        snapshots.append(
            {n: s.in_flight.copy() for n, s in sharder.arrays.items()}
        )
        return end_epoch(name)

    sharder.end_epoch = spy
    switch.start(max_ticks=max_ticks)
    if chunk is None:
        switch.feed(trace)
    else:
        for lo in range(0, len(trace), chunk):
            switch.feed(trace[lo : lo + chunk])
            switch.pump(max_steps=1, until_tick=switch.ingest_watermark)
    switch.finish()
    schedule = switch._last_schedule

    assert len(snapshots) == len(schedule.remap_records) > 3
    shardable = [n for n, s in sharder.arrays.items() if s.shardable]
    assert len(shardable) == 3  # two register arrays and the flow order
    for (boundary, _moved), snapshot in zip(
        schedule.remap_records, snapshots
    ):
        for name in shardable:
            expected = np.zeros(sharder.arrays[name].size, dtype=np.int64)
            for pi, plan in enumerate(switch._vplans):
                if plan.base != name:
                    continue
                if plan.is_flow:
                    rows = schedule.inj <= boundary
                else:
                    rows = _pending(schedule, pi, boundary)
                expected += np.bincount(
                    schedule.acc_idx[pi][rows], minlength=expected.shape[0]
                )
            assert snapshot[name].tolist() == expected.tolist(), (
                boundary,
                name,
            )
