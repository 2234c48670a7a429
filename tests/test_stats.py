"""Tests for run statistics and the C1 metrics."""

import pytest

from repro.mp5 import SwitchStats, c1_metrics
from repro.mp5.stats import C1Report


class TestThroughput:
    def _stats(self, arrivals, egresses, offered=None):
        stats = SwitchStats()
        stats.arrival_ticks = arrivals
        stats.egress_ticks = egresses
        stats.offered = offered if offered is not None else len(arrivals)
        stats.egressed = len(egresses)
        return stats

    def test_full_rate(self):
        stats = self._stats(list(range(100)), list(range(2, 102)))
        assert stats.throughput_normalized() == pytest.approx(1.0)

    def test_half_rate(self):
        # 100 arrivals over 100 ticks, but only every other one egresses
        # in the measurement window.
        arrivals = [float(i) for i in range(100)]
        egresses = [float(2 * i) for i in range(50) if 2 * i <= 99]
        stats = self._stats(arrivals, egresses)
        assert 0.4 < stats.throughput_normalized() < 0.6

    def test_empty_run(self):
        assert SwitchStats().throughput_normalized() == 0.0

    @staticmethod
    def _generator_counts(arrivals, egresses, warmup=0.5):
        """The window counts as first written: generator sums."""
        first, last = min(arrivals), max(arrivals)
        window_start = first + (last - first) * warmup
        return (
            sum(1 for t in arrivals if t >= window_start),
            sum(1 for t in egresses if window_start <= t <= last),
        )

    @pytest.mark.parametrize("kind", ["int", "float", "mixed"])
    @pytest.mark.parametrize("warmup", [0.5, 0.2, 0])
    def test_window_counts_include_both_edges(self, kind, warmup):
        """Ticks equal to ``window_start`` and to ``last`` count, on int,
        float and mixed tick lists, and the ratio equals the generator
        sums' to the bit."""
        arrivals = [0, 3, 5, 5, 7, 9, 10, 10, 2, 8]
        egresses = [1, 5, 5, 6, 10, 10, 11, 12, 4, 9, 10, 13, 5, 2, 0, 2]
        if kind == "float":
            arrivals = [float(t) for t in arrivals]
            egresses = [t + 0.0 for t in egresses]
        elif kind == "mixed":
            arrivals = [
                float(t) if i % 2 else t for i, t in enumerate(arrivals)
            ]
            egresses = [
                t + 0.5 if i % 4 == 3 else t for i, t in enumerate(egresses)
            ]
        stats = self._stats(arrivals, egresses)
        arrived, egressed = self._generator_counts(arrivals, egresses, warmup)
        start = 10 * warmup
        assert start in arrivals and start in egresses  # on the edges
        assert max(arrivals) in egresses
        assert arrived and egressed
        got = stats.throughput_normalized(warmup)
        assert got == min(1.0, egressed / arrived)
        assert type(got) is float

    def test_delivery_ratio(self):
        stats = self._stats([0.0, 1.0], [5.0], offered=2)
        assert stats.delivery_ratio == 0.5

    def test_summary_keys(self):
        stats = self._stats([0.0], [1.0])
        summary = stats.summary()
        for key in ("offered", "egressed", "throughput", "max_queue_depth"):
            assert key in summary

    def test_summary_includes_drop_breakdown(self):
        stats = self._stats([0.0], [1.0])
        stats.drops_fifo_full = 3
        stats.drops_no_phantom = 2
        summary = stats.summary()
        assert summary["drops_fifo_full"] == 3
        assert summary["drops_no_phantom"] == 2


class TestLatencyPercentile:
    def test_basic_percentiles(self):
        stats = SwitchStats()
        stats.latencies = [float(i) for i in range(1, 101)]
        assert stats.latency_percentile(0) == 1.0
        assert stats.latency_percentile(100) == 100.0
        assert stats.latency_percentile(50) == pytest.approx(50.0, abs=1.0)

    def test_empty_returns_zero(self):
        assert SwitchStats().latency_percentile(99) == 0.0

    @pytest.mark.parametrize("bad", [-0.1, 100.1, 150, -5])
    def test_out_of_range_raises(self, bad):
        stats = SwitchStats()
        stats.latencies = [1.0, 2.0]
        with pytest.raises(ValueError):
            stats.latency_percentile(bad)

    @pytest.mark.parametrize("bad", [-0.1, 100.1])
    def test_out_of_range_raises_even_when_empty(self, bad):
        # Regression: the range check used to sit after the empty-list
        # early return, so bad percentiles silently produced 0.0.
        with pytest.raises(ValueError):
            SwitchStats().latency_percentile(bad)


class TestReordering:
    def test_in_order_flows_zero(self):
        stats = SwitchStats()
        stats.flow_egress = {1: [0, 1, 2], 2: [3, 4]}
        assert stats.reordered_flows() == 0
        assert stats.reordered_packets() == 0

    def test_reordered_flow_detected(self):
        stats = SwitchStats()
        stats.flow_egress = {1: [0, 2, 1]}
        assert stats.reordered_flows() == 1
        assert stats.reordered_packets() == 1

    def test_multiple_reordered_packets(self):
        stats = SwitchStats()
        stats.flow_egress = {1: [3, 0, 1, 2]}
        assert stats.reordered_packets() == 3


class TestC1Metrics:
    def test_perfect_order_zero(self):
        ref = {("r", 0): [0, 1, 2]}
        obs = {("r", 0): [0, 1, 2]}
        report = c1_metrics(ref, obs, 3)
        assert report.displaced_packets == 0
        assert report.inversion_fraction == 0.0
        assert not report.violated

    def test_swap_detected(self):
        ref = {("r", 0): [0, 1, 2]}
        obs = {("r", 0): [0, 2, 1]}
        report = c1_metrics(ref, obs, 3)
        assert report.displaced_packets == 2  # both parties of the swap
        assert report.inversions == 1
        assert report.violated

    def test_missing_reference_falls_back_to_sorted(self):
        report = c1_metrics({}, {("r", 0): [2, 0, 1]}, 3)
        assert report.displaced_packets == 3
        assert report.inversions == 1

    def test_multiple_states_union_of_violators(self):
        ref = {("r", 0): [0, 1], ("r", 1): [2, 3]}
        obs = {("r", 0): [1, 0], ("r", 1): [2, 3]}
        report = c1_metrics(ref, obs, 4)
        assert report.displaced_packets == 2
        assert report.displaced_fraction == 0.5

    def test_inversion_fraction_normalizes_by_accesses(self):
        obs = {("r", 0): [1, 0], ("r", 1): [0, 1]}
        report = c1_metrics({}, obs, 2)
        assert report.inversion_fraction == pytest.approx(0.25)

    def test_swap_without_reference_displaces_both(self):
        report = c1_metrics({}, {("r", 0): [1, 0]}, 2)
        assert report.displaced_packets == 2
        assert report.displaced_fraction == 1.0

    def test_empty_observation(self):
        report = c1_metrics({}, {}, 0)
        assert report.displaced_fraction == 0.0
        assert report.inversion_fraction == 0.0
