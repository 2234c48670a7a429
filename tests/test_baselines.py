"""Tests for the baseline switch designs."""

import pytest

from repro.baselines import (
    RecircConfig,
    RecirculationSwitch,
    make_single_pipeline_state_switch,
    no_phantom_config,
    run_recirculation,
    run_single_pipeline_state,
    static_shard_config,
)
from repro.compiler import compile_program
from repro.errors import ConfigError
from repro.mp5 import MP5Config
from repro.workloads import (
    line_rate_trace,
    make_sensitivity_program,
    sensitivity_trace,
)

from .conftest import heavy_hitter_headers


class TestConfigs:
    def test_static_shard_config(self):
        cfg = static_shard_config(num_pipelines=8)
        assert cfg.remap_algorithm == "none"
        assert cfg.initial_shard == "random"

    def test_no_phantom_config(self):
        cfg = no_phantom_config(num_pipelines=8)
        assert not cfg.enable_phantoms

    def test_recirc_config_validation(self):
        with pytest.raises(ConfigError):
            RecircConfig(num_pipelines=0)
        with pytest.raises(ConfigError):
            RecircConfig(num_pipelines=8, num_ports=4)
        with pytest.raises(ConfigError):
            RecircConfig(recirc_latency=-1)


class TestSinglePipelineState:
    def test_all_state_on_pipeline_zero(self, heavy_hitter_program):
        switch = make_single_pipeline_state_switch(
            heavy_hitter_program, MP5Config(num_pipelines=4)
        )
        mapping = switch.sharder.arrays["counts"].index_to_pipeline
        assert (mapping == 0).all()

    def test_throughput_caps_at_one_over_k(self, heavy_hitter_program):
        trace = line_rate_trace(1200, 4, heavy_hitter_headers, seed=0)
        stats, _ = run_single_pipeline_state(
            heavy_hitter_program, trace, MP5Config(num_pipelines=4)
        )
        assert stats.throughput_normalized() == pytest.approx(0.25, abs=0.03)

    def test_still_functionally_correct(self, sequencer_program):
        trace = line_rate_trace(200, 4, lambda r, i: {"seq": 0}, seed=0)
        stats, registers = run_single_pipeline_state(
            sequencer_program, trace, MP5Config(num_pipelines=4)
        )
        assert registers["count"][0] == 200

    def test_remap_never_spreads_pinned_state(self, heavy_hitter_program):
        trace = line_rate_trace(800, 4, heavy_hitter_headers, seed=0)
        switch = make_single_pipeline_state_switch(
            heavy_hitter_program, MP5Config(num_pipelines=4, remap_period=20)
        )
        switch.run(trace)
        assert (switch.sharder.arrays["counts"].index_to_pipeline == 0).all()


class TestRecirculation:
    def _program_and_trace(self, n=800, k=4, seed=0):
        program = make_sensitivity_program(4, 64)
        trace = sensitivity_trace(n, k, 4, 64, pattern="uniform", seed=seed)
        return program, trace

    def test_static_port_mapping(self):
        program, _ = self._program_and_trace()
        switch = RecirculationSwitch(program, RecircConfig(num_pipelines=4))
        assert switch._pipe_of_port(0) == 0
        assert switch._pipe_of_port(15) == 0
        assert switch._pipe_of_port(16) == 1
        assert switch._pipe_of_port(63) == 3

    def test_recirculations_counted(self):
        program, trace = self._program_and_trace()
        stats, switch = run_recirculation(
            program, trace, RecircConfig(num_pipelines=4)
        )
        # Four accesses spread over four pipelines: most packets need
        # several passes.
        assert switch.avg_recirculations > 1.0

    def test_throughput_well_below_mp5(self):
        from repro.mp5 import run_mp5

        program, trace = self._program_and_trace()
        recirc_stats, _ = run_recirculation(
            program, trace, RecircConfig(num_pipelines=4)
        )
        mp5_stats, _ = run_mp5(
            program, trace, MP5Config(num_pipelines=4)
        )
        assert (
            recirc_stats.throughput_normalized()
            < 0.6 * mp5_stats.throughput_normalized()
        )

    def test_all_packets_complete_eventually(self):
        program, trace = self._program_and_trace(n=300)
        stats, _ = run_recirculation(program, trace, RecircConfig(num_pipelines=4))
        assert stats.egressed == stats.offered

    def test_register_final_state_correct_for_commutative_updates(self):
        # Counter increments commute, so even the re-circulating switch
        # converges to the right totals (it is the ORDER it breaks).
        program, trace = self._program_and_trace(n=200)
        switch = RecirculationSwitch(program, RecircConfig(num_pipelines=4))
        switch.run(trace)
        total = sum(sum(switch.registers[f"reg{i}"]) for i in range(4))
        assert total == 200 * 4

    def test_single_pipeline_recirc_needs_no_recirculation(self):
        program, trace = self._program_and_trace(k=1)
        stats, switch = run_recirculation(
            program, trace, RecircConfig(num_pipelines=1)
        )
        assert switch.total_recirculations == 0
        assert stats.egressed == stats.offered

    def test_access_order_violations_observed(self):
        from repro.banzai import run_reference
        from repro.mp5 import c1_metrics
        from repro.workloads import reference_trace

        program, trace = self._program_and_trace(n=600)
        reference = run_reference(program, reference_trace(trace, 4))
        stats, _ = run_recirculation(
            program,
            trace,
            RecircConfig(num_pipelines=4),
            record_access_order=True,
        )
        report = c1_metrics(reference.access_order, stats.access_order, len(trace))
        assert report.inversion_fraction > 0.0

    def test_max_ticks_truncates(self):
        program, trace = self._program_and_trace(n=500)
        stats, _ = run_recirculation(
            program, trace, RecircConfig(num_pipelines=4), max_ticks=30
        )
        assert stats.ticks == 30
