"""Tests for the baseline switch designs."""

import hashlib
import json

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
from repro.banzai import run_reference
from repro.compiler import compile_program
from repro.errors import ConfigError
from repro.mp5 import MP5Config
from repro.workloads import (
    line_rate_trace,
    make_sensitivity_program,
    random_headers,
    reference_trace,
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
            RecircConfig(pipeline_depth=1)


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

    @pytest.mark.parametrize(
        "num_stateful,k,pattern",
        [(1, 4, "uniform"), (4, 4, "skewed"), (4, 2, "uniform")],
    )
    def test_same_results_on_fast_and_vector(self, num_stateful, k, pattern):
        program = make_sensitivity_program(num_stateful, 64)
        trace = sensitivity_trace(600, k, num_stateful, 64, pattern=pattern)
        config = MP5Config(num_pipelines=k)
        fast = run_single_pipeline_state(program, trace, config, engine="fast")
        vector_switch = make_single_pipeline_state_switch(
            program, config, engine="vector"
        )
        assert vector_switch.engine == "vector"
        vector = run_single_pipeline_state(program, trace, config, engine="vector")
        assert vector == fast

    def test_remap_never_spreads_pinned_state(self, heavy_hitter_program):
        trace = line_rate_trace(800, 4, heavy_hitter_headers, seed=0)
        switch = make_single_pipeline_state_switch(
            heavy_hitter_program, MP5Config(num_pipelines=4, remap_period=20)
        )
        switch.run(trace)
        assert (switch.sharder.arrays["counts"].index_to_pipeline == 0).all()


# sha256 of a record_access_order run's ticks, egress ticks, sorted
# access order, registers, re-circulations and passes, per
# (stateful stages, pipelines, pattern, max_ticks): 400 packets, register
# size 64, trace seed m + k, config seed k. Computed on the
# instruction-at-a-time interpreter this baseline replaced; never
# regenerate them to make a change pass.
RECIRC_GOLDEN = [
    ((1, 1, "uniform", None), "a6c0f35d610aa98c24ca46f17977c9d4e93fc7557b61289358271ab7771c3a86"),
    ((1, 1, "skewed", None), "3e7ca970848c692cf0aa0b40ca584ccaac05943290c1fbea3284bbf5757cfdee"),
    ((1, 4, "uniform", None), "c65fcf5950910fdf16d548f6554fd41677a4f1889bf6e57a048e7236c3fdd3ad"),
    ((1, 4, "skewed", None), "d54de24e52b17df514dcff6bccdafe8a2a0ea9fcb6a8989ceec7bd5ba4fb9393"),
    ((4, 1, "uniform", None), "8628df88b2cc9e71b2261042d65a9a7db2346352f63c9eed86744df76fafe2ac"),
    ((4, 1, "skewed", None), "754ae41dc3a7615e14cd5cfb5b041c78232636ebeb9ab2458815d3625f9c3d53"),
    ((4, 4, "uniform", None), "e0a8e7ae2205e9d5cf37d6b084f6a0474737bf7e4a48154c818412708ed074fa"),
    ((4, 4, "skewed", None), "2fb68b81306b4ed4a8c374a01cdaf90ba66dd8ab81425474c09fb353c3357511"),
    ((8, 1, "uniform", None), "ad32b8efd8b27aec3090edc8311187de17fbb75996c89ac634b1b294d18b2127"),
    ((8, 1, "skewed", None), "468de7c753b8a36fbaf910694964c8b3e90acaf3d19889cfdc37f8dfbc621df0"),
    ((8, 4, "uniform", None), "771d069f7e40e223f71e367a8dffba9fcfcdb2f44375ad0a7cddf5c7b48b9ccb"),
    ((8, 4, "skewed", None), "1952f0dbf6dac63ff9b77fa072c487fda4fe9797276b9d50ab29c86879bf90a0"),
    ((4, 4, "skewed", 200), "a8e31ca76867c3c5607619237cbd953e6bf8b70c480ff66e77a9d577a6590f07"),
]

# One stateless header update before two arrays: on k > 1 pipelines most
# packets take several passes, and each stage must still run once.
HOPS_SOURCE = """
struct Packet { int hops; int a; int b; };
int r0[64] = {0};
int r1[64] = {0};
void func(struct Packet p) {
    p.hops = p.hops + 1;
    r0[p.a % 64] = r0[p.a % 64] + 1;
    r1[p.b % 64] = r1[p.b % 64] + 1;
}
"""


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

    @pytest.mark.parametrize("case,digest", RECIRC_GOLDEN, ids=str)
    def test_golden_digest(self, case, digest):
        m, k, pattern, max_ticks = case
        program = make_sensitivity_program(m, 64)
        trace = sensitivity_trace(400, k, m, 64, pattern=pattern, seed=m + k)
        stats, switch = run_recirculation(
            program,
            trace,
            RecircConfig(num_pipelines=k, seed=k),
            max_ticks=max_ticks,
            record_access_order=True,
        )
        facts = [
            stats.ticks,
            stats.egress_ticks,
            sorted([a, i, ids] for (a, i), ids in stats.access_order.items()),
            switch.registers,
            switch.total_recirculations,
            switch.total_passes,
        ]
        assert hashlib.sha256(json.dumps(facts).encode()).hexdigest() == digest

    def test_each_stage_runs_once_per_packet(self):
        program = compile_program(HOPS_SOURCE, name="hops")
        trace = line_rate_trace(
            400,
            4,
            lambda rng, i: {
                "hops": 0,
                "a": int(rng.integers(0, 64)),
                "b": int(rng.integers(0, 64)),
            },
            seed=0,
        )
        stats, switch = run_recirculation(
            program, trace, RecircConfig(num_pipelines=4), record_access_order=True
        )
        assert switch.total_recirculations > 0
        assert stats.egressed == len(trace)
        reference = run_reference(program, reference_trace(trace, 4))
        want = reference.headers_by_id()
        assert {p.pkt_id: p.headers for p in switch.packets} == want

    def test_co_staged_arrays_share_a_pipeline(self):
        # A pass runs a whole stage or none of it, so a stage's arrays
        # must live in one pipeline or its packets could never finish.
        program = compile_program("conga")
        trace = line_rate_trace(300, 4, random_headers(program), seed=4)
        stats, switch = run_recirculation(
            program, trace, RecircConfig(num_pipelines=4, seed=3)
        )
        mapping = switch.index_to_pipeline
        assert (mapping["best_path"] == mapping["best_path_util"]).all()
        assert stats.egressed == stats.offered
