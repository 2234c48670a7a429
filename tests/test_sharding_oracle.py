"""The touched-only remap against a sweep of the whole array.

``ShardingRuntime`` reads and resets only the indexes an epoch counted.
The oracle below is the dense form it replaced, kept verbatim in
behaviour: the Figure 6 heuristic, the iterated ``optimal`` variant and
the emergency evacuation, each over every slot of the array. Hypothesis
draws maps, counts (fed per access, as the scalar engines do, or as
bincount blocks, as the vector engine does), in-flight counters and
mid-epoch emergency moves; every remap must move exactly what the
oracle moves, and every counter must be zero after ``end_epoch``.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mp5 import ShardingRuntime

SIZES = {"r": 48, "s": 7}


def _pipeline_load(state, k):
    return np.bincount(
        state.index_to_pipeline, weights=state.access_counts, minlength=k
    ).astype(np.int64)


def dense_heuristic(state, k) -> bool:
    per_pipe = _pipeline_load(state, k)
    high = int(per_pipe.argmax())
    low = int(per_pipe.argmin())
    c_max, c_min = int(per_pipe[high]), int(per_pipe[low])
    if high == low or c_max == c_min:
        return False
    threshold = (c_max - c_min) / 2
    on_high = np.nonzero(state.index_to_pipeline == high)[0]
    if on_high.size == 0:
        return False
    counts = state.access_counts[on_high]
    eligible = (counts < threshold) & (state.in_flight[on_high] == 0)
    if not eligible.any():
        return False
    candidates = on_high[eligible]
    best = candidates[int(state.access_counts[candidates].argmax())]
    state.index_to_pipeline[best] = low
    return True


def dense_optimal(state, k) -> bool:
    per_pipe = _pipeline_load(state, k)
    moved_any = False
    for _ in range(state.size):
        high = int(per_pipe.argmax())
        low = int(per_pipe.argmin())
        gap = int(per_pipe[high]) - int(per_pipe[low])
        if high == low or gap <= 0:
            break
        on_high = np.nonzero(state.index_to_pipeline == high)[0]
        counts = state.access_counts[on_high]
        eligible = (counts < gap) & (counts > 0) & (
            state.in_flight[on_high] == 0
        )
        if not eligible.any():
            break
        candidates = on_high[eligible]
        best = candidates[int(state.access_counts[candidates].argmax())]
        weight = int(state.access_counts[best])
        state.index_to_pipeline[best] = low
        per_pipe[high] -= weight
        per_pipe[low] += weight
        moved_any = True
    return moved_any


def dense_emergency(states, k, failed, healthy):
    targets = [p for p in sorted(set(healthy)) if p != failed]
    moved = deferred = 0
    if not targets:
        return 0, 0
    loads = {p: 0 for p in targets}
    for state in states:
        per_pipe = _pipeline_load(state, k)
        for p in targets:
            loads[p] += int(per_pipe[p])
    for state in states:
        on_failed = np.nonzero(state.index_to_pipeline == failed)[0]
        for index in on_failed:
            if state.in_flight[index] > 0:
                deferred += 1
                continue
            dest = min(targets, key=lambda p: (loads[p], p))
            state.index_to_pipeline[index] = dest
            loads[dest] += int(state.access_counts[index]) + 1
            moved += 1
    return moved, deferred


def _copy(state):
    return SimpleNamespace(
        size=state.size,
        index_to_pipeline=state.index_to_pipeline.copy(),
        access_counts=state.access_counts.copy(),
        in_flight=state.in_flight.copy(),
    )


@st.composite
def epoch_script(draw):
    k = draw(st.integers(min_value=2, max_value=5))
    maps = {
        name: draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
        for name, n in SIZES.items()
    }
    epochs = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        epoch = {}
        for name, n in SIZES.items():
            hot = st.integers(0, min(n - 1, 3))
            index = st.one_of(hot, st.integers(0, n - 1))
            epoch[name] = dict(
                before=draw(st.lists(index, max_size=40)),
                after=draw(st.lists(index, max_size=15)),
                blocks=draw(st.none() | st.integers(1, 3)),
                in_flight=draw(
                    st.lists(
                        st.sampled_from((0, 0, 0, 1, 2)), min_size=n, max_size=n
                    )
                ),
            )
        failed = draw(st.none() | st.integers(0, k - 1))
        healthy = draw(st.lists(st.integers(0, k - 1), max_size=k))
        epoch["emergency"] = None if failed is None else (failed, healthy)
        epochs.append(epoch)
    algorithm = draw(st.sampled_from(("heuristic", "optimal")))
    return k, maps, epochs, algorithm


def _feed(rt, name, indexes, blocks):
    """``blocks=None``: one note_resolved per access; otherwise that
    many bincount blocks through note_counts."""
    if blocks is None:
        for index in indexes:
            rt.note_resolved(name, index)
        return
    size = rt.arrays[name].size
    for part in np.array_split(np.array(indexes, dtype=np.int64), blocks):
        rt.note_counts(name, np.bincount(part, minlength=size))


@given(epoch_script())
@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
def test_touched_remap_moves_what_the_dense_sweep_moves(script):
    k, maps, epochs, algorithm = script
    rt = ShardingRuntime([(n, s, True, n) for n, s in SIZES.items()], k)
    for name, mapping in maps.items():
        rt.arrays[name].index_to_pipeline[:] = mapping
    dense = dense_heuristic if algorithm == "heuristic" else dense_optimal
    for epoch in epochs:
        for name in SIZES:
            feed = epoch[name]
            _feed(rt, name, feed["before"], feed["blocks"])
            rt.arrays[name].in_flight[:] = feed["in_flight"]
        if epoch["emergency"] is not None:
            failed, healthy = epoch["emergency"]
            oracle = [_copy(s) for s in rt.arrays.values()]
            want = dense_emergency(oracle, k, failed, healthy)
            assert rt.emergency_remap(failed, healthy) == want
            for state, copy in zip(rt.arrays.values(), oracle):
                assert state.index_to_pipeline.tolist() == (
                    copy.index_to_pipeline.tolist()
                )
        for name in SIZES:
            _feed(rt, name, epoch[name]["after"], epoch[name]["blocks"])
        oracle = {n: _copy(s) for n, s in rt.arrays.items()}
        want = sum(bool(dense(oracle[n], k)) for n in SIZES)
        assert rt.end_epoch(algorithm) == want
        for name, state in rt.arrays.items():
            assert state.index_to_pipeline.tolist() == (
                oracle[name].index_to_pipeline.tolist()
            )
            assert not state.access_counts.any()
            assert not state.touched and not state.touched_blocks
