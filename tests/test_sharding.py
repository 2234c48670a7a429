"""Tests for the dynamic state sharding runtime (D2, Figure 6)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.mp5 import ShardingRuntime


def runtime(size=8, k=4, shardable=True, initial="roundrobin", arrays=None):
    arrays = arrays or [("r", size, shardable, "r")]
    return ShardingRuntime(arrays, k, initial=initial, rng=np.random.default_rng(0))


class TestInitialPlacement:
    def test_roundrobin_spreads_indexes(self):
        rt = runtime(size=8, k=4)
        mapping = rt.arrays["r"].index_to_pipeline
        assert sorted(np.bincount(mapping, minlength=4)) == [2, 2, 2, 2]

    def test_random_uses_all_pipelines_eventually(self):
        rt = runtime(size=256, k=4, initial="random")
        mapping = rt.arrays["r"].index_to_pipeline
        assert set(np.unique(mapping)) == {0, 1, 2, 3}

    def test_non_shardable_on_one_pipeline(self):
        rt = runtime(size=8, shardable=False)
        mapping = rt.arrays["r"].index_to_pipeline
        assert len(set(mapping)) == 1

    def test_pin_key_groups_colocate(self):
        rt = runtime(
            arrays=[("a", 4, False, "grp"), ("b", 4, False, "grp")], k=4
        )
        assert rt.lookup("a", 0) == rt.lookup("b", 2)

    def test_different_pin_keys_spread(self):
        rt = runtime(
            arrays=[(f"r{i}", 1, False, f"r{i}") for i in range(4)], k=4
        )
        pipes = {rt.lookup(f"r{i}", 0) for i in range(4)}
        assert len(pipes) == 4

    def test_single_pipeline_everything_at_zero(self):
        rt = runtime(k=1)
        assert rt.lookup("r", 5) == 0

    def test_bad_config_rejected(self):
        with pytest.raises(ConfigError):
            runtime(k=0)
        with pytest.raises(ConfigError):
            ShardingRuntime([("r", 4, True, "r")], 2, initial="magic")


class TestAccounting:
    def test_note_resolved_increments_counters(self):
        rt = runtime()
        rt.note_resolved("r", 3)
        rt.note_resolved("r", 3)
        state = rt.arrays["r"]
        assert state.access_counts[3] == 2
        assert state.in_flight[3] == 2

    def test_note_completed_decrements_in_flight(self):
        rt = runtime()
        rt.note_resolved("r", 3)
        rt.note_completed("r", 3)
        assert rt.arrays["r"].in_flight[3] == 0

    def test_in_flight_never_negative(self):
        rt = runtime()
        rt.note_completed("r", 0)
        assert rt.arrays["r"].in_flight[0] == 0

    def test_index_wraps(self):
        rt = runtime(size=4)
        rt.note_resolved("r", 7)
        assert rt.arrays["r"].access_counts[3] == 1

    def test_array_level_access_skips_counters(self):
        rt = runtime()
        pipe = rt.note_resolved("r", None)
        assert 0 <= pipe < 4
        assert rt.arrays["r"].access_counts.sum() == 0


class TestHeuristicRemap:
    def test_moves_from_high_to_low(self):
        rt = runtime(size=8, k=2)
        state = rt.arrays["r"]
        state.index_to_pipeline[:] = 0  # all on pipeline 0
        rt.note_counts("r", np.array([10, 9, 8, 1, 0, 0, 0, 0]))
        assert rt.remap_heuristic("r")
        # Something moved to pipeline 1.
        assert (state.index_to_pipeline == 1).sum() == 1

    def test_moves_largest_counter_below_half_gap(self):
        rt = runtime(size=4, k=2)
        state = rt.arrays["r"]
        state.index_to_pipeline[:] = 0
        rt.note_counts("r", np.array([10, 6, 3, 1]))
        rt.remap_heuristic("r")
        # gap = 20, C = 10; largest counter < 10 is index 1 (6).
        assert state.index_to_pipeline[1] == 1

    def test_in_flight_blocks_move(self):
        rt = runtime(size=2, k=2)
        state = rt.arrays["r"]
        state.index_to_pipeline[:] = 0
        rt.note_counts("r", np.array([10, 4]))
        state.in_flight[:] = [0, 3]  # only the movable candidate is busy
        assert not rt.remap_heuristic("r")

    def test_every_loaded_candidate_in_flight_moves_an_idle_index(self):
        """Pins today's order, which differs from Figure 6's (pick the
        heaviest candidate first, then check its in-flight counter):
        in-flight indexes are filtered out before the pick, so when
        every loaded candidate on the busiest pipeline is in flight the
        move goes to an index with zero accesses and shifts no load.
        EXPERIMENTS.md lists this deviation."""
        rt = runtime(size=4, k=2)
        state = rt.arrays["r"]
        state.index_to_pipeline[:] = [0, 0, 0, 1]
        rt.note_counts("r", np.array([10, 4, 0, 1]))
        state.in_flight[:] = [2, 1, 0, 0]  # both loaded candidates busy
        assert rt.remap_heuristic("r")
        assert state.index_to_pipeline.tolist() == [0, 0, 1, 1]
        assert state.access_counts[2] == 0  # the moved index carried nothing

    def test_balanced_load_no_move(self):
        rt = runtime(size=4, k=2)
        state = rt.arrays["r"]
        state.index_to_pipeline[:] = [0, 1, 0, 1]
        rt.note_counts("r", np.array([5, 5, 5, 5]))
        assert not rt.remap_heuristic("r")

    def test_non_shardable_never_moves(self):
        rt = runtime(shardable=False)
        rt.note_counts("r", np.array([100, 0, 0, 0, 0, 0, 0, 0]))
        assert not rt.remap_heuristic("r")

    def test_end_epoch_resets_counters(self):
        rt = runtime()
        rt.note_resolved("r", 0)
        rt.end_epoch("heuristic")
        assert rt.arrays["r"].access_counts.sum() == 0

    def test_end_epoch_none_never_moves(self):
        rt = runtime(size=8, k=2)
        state = rt.arrays["r"]
        state.index_to_pipeline[:] = 0
        rt.note_counts("r", np.full(8, 5))
        assert rt.end_epoch("none") == 0
        assert (state.index_to_pipeline == 0).all()

    def test_unknown_algorithm_rejected(self):
        rt = runtime()
        with pytest.raises(ConfigError):
            rt.end_epoch("magic")


class TestOptimalRemap:
    def test_converges_to_balance(self):
        rt = runtime(size=8, k=2)
        state = rt.arrays["r"]
        state.index_to_pipeline[:] = 0
        rt.note_counts("r", np.array([8, 7, 6, 5, 4, 3, 2, 1]))
        rt.remap_optimal("r")
        loads = np.zeros(2, dtype=int)
        np.add.at(loads, state.index_to_pipeline, state.access_counts)
        assert abs(loads[0] - loads[1]) <= 8  # within one max item

    def test_beats_or_equals_single_move(self):
        counts = [9, 8, 2, 2, 2, 1]
        rt_h = runtime(size=6, k=2)
        rt_o = runtime(size=6, k=2)
        for rt in (rt_h, rt_o):
            state = rt.arrays["r"]
            state.index_to_pipeline[:] = 0
            rt.note_counts("r", np.array(counts))

        def imbalance(rt):
            state = rt.arrays["r"]
            loads = np.zeros(2, dtype=int)
            np.add.at(loads, state.index_to_pipeline, state.access_counts)
            return loads.max() - loads.min()

        rt_h.remap_heuristic("r")
        rt_o.remap_optimal("r")
        assert imbalance(rt_o) <= imbalance(rt_h)

    def test_respects_in_flight(self):
        rt = runtime(size=2, k=2)
        state = rt.arrays["r"]
        state.index_to_pipeline[:] = 0
        rt.note_counts("r", np.array([5, 4]))
        state.in_flight[:] = [1, 1]
        assert not rt.remap_optimal("r")


class TestPipelineLoad:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_add_at_on_random_counters(self, seed):
        """The weighted bincount behind all three remaps equals the
        ``np.add.at`` accumulation it replaced, dtype included — also
        with an idle pipeline and with counters beyond 2**32."""
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 9))
        rt = runtime(size=int(rng.integers(1, 300)), k=k, initial="random")
        state = rt.arrays["r"]
        state.index_to_pipeline[state.index_to_pipeline == k - 1] = 0
        rt.note_counts("r", rng.integers(0, 1 << 40, size=state.size))
        want = np.zeros(k, dtype=np.int64)
        np.add.at(want, state.index_to_pipeline, state.access_counts)
        got = rt.pipeline_load(state)
        assert got.dtype == np.int64 and got.tolist() == want.tolist()


class TestDiagnostics:
    def test_load_imbalance_metric(self):
        rt = runtime(size=8, k=4)
        assert rt.load_imbalance("r") == pytest.approx(1.0)

    def test_sram_overhead_bits(self):
        rt = runtime(size=100)
        assert rt.sram_overhead_bits() == 3000
