"""Tests for workload generation."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import CONGA, FLOWLET
from repro.compiler import compile_program
from repro.errors import ConfigError
from repro.workloads import (
    BimodalPacketSizes,
    EmpiricalCDF,
    FlowWorkload,
    SkewedAccess,
    UniformAccess,
    clone_packets,
    line_rate_trace,
    make_sensitivity_program,
    random_headers,
    reference_trace,
    sensitivity_trace,
    synthetic_source,
    variable_size_trace,
    web_search_flow_sizes,
    zipf_access,
)


def trace_digest(packets) -> str:
    """sha256 over every packet's trace facts, in trace order."""
    h = hashlib.sha256()
    for p in packets:
        facts = (repr(p.arrival), p.port, sorted(p.headers.items()), p.size_bytes, p.flow_id)
        h.update(repr(facts).encode())
    return h.hexdigest()


#: Every generator's draws, pinned: digests taken from the per-sample
#: generators before block draws and positional packets replaced them.
#: A change of any draw, its order or an arrival bit fails here, and a
#: changed digest is a changed trace, not a value to re-record. 300 is
#: a register size that is not a power of two.
GOLDEN_DIGESTS = {
    "sensitivity-uniform-512-0": "a3899796c0bc4ad21afd856c54aaf397a16f03fcbafd064811422b149eed6672",
    "sensitivity-uniform-512-1": "8dee775cc787625453aca3c5ad242bdd063ce0c42e7a303347da57e21ac1f7cc",
    "sensitivity-uniform-512-2": "b256bb3ebddab4c7ef20dc5d242550445ecf8a385790ab429bde2ab3594eaf74",
    "sensitivity-uniform-300-0": "27a4886dd11242a987d327076275bdcaccc84a381c011b040496b466ebb38b59",
    "sensitivity-uniform-300-1": "d5114bd40e0e5081ec3b6ba0a2ccfe453188a59e93637ecdf58c348d0f990eb8",
    "sensitivity-uniform-300-2": "986c962166cdec8d223549f9d9cd2be28d9397752e4846fedf5f4e11b301edb1",
    "sensitivity-skewed-512-0": "ba4850cdf98743bdc306fef7ed112de3db0d1437583a1547058010c71490e61f",
    "sensitivity-skewed-512-1": "994afd047662b245520339abbb8ffbe7b097ebe05f7977f8fa2c5558dc450846",
    "sensitivity-skewed-512-2": "e74773421c49863d264688ed8135b3a8018e282da30db5921df82af08c0f64d1",
    "sensitivity-skewed-300-0": "286cc76a2bd206fe0f0a2b9387d223ff83dac8d2d20e60132a68c8ca82f5130d",
    "sensitivity-skewed-300-1": "194342031f015f14a77f21f7fe06a2a6e816313c3a8dad03bfca1c93e4c64662",
    "sensitivity-skewed-300-2": "901bdb9b1f192f4a779a47a2bcaf054add892eefa464d0609a70e2fb699440d0",
    "line_rate-random_headers": "68688232bc1a400094a488f7b1636110165b2bf3b81cfc7f25dd3d40ed450338",
    "variable_size": "8a52fcb5271fb9c1714ef39614f9788943239a8ff2446bffd209164e8fa63f50",
    "flowlet": "7cef7f6f520f8267395ac22f7827d63926e78f47afb45bce46f334f1f3e4d36b",
    "conga": "2a43a91a4432f0a1d10858ff75e0458016772487744b486da7016898d84c04ac",
}


def _golden_trace(name: str):
    kind, _, rest = name.partition("-")
    if kind == "sensitivity":
        pattern, size, seed = rest.split("-")
        return sensitivity_trace(400, 4, 4, int(size), pattern, seed=int(seed))
    headers = random_headers(compile_program("conga"))
    if kind == "line_rate":
        return line_rate_trace(400, 4, headers, seed=5)
    if kind == "variable_size":
        return variable_size_trace(400, 4, headers, seed=6)
    if kind == "flowlet":
        return FLOWLET.workload(400, 4, seed=7)
    return CONGA.workload(400, 4, seed=8)


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_generator_draws_are_pinned(name):
    assert trace_digest(_golden_trace(name)) == GOLDEN_DIGESTS[name]


@given(size=st.integers(1, 2**40), seed=st.integers(0, 2**32 - 1), count=st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_uniform_block_draw_equals_per_sample_draws(size, seed, count):
    sampler = UniformAccess(size)
    block = sampler.sample_many(np.random.default_rng(seed), count)
    rng = np.random.default_rng(seed)
    assert block.tolist() == [sampler.sample(rng) for _ in range(count)]


class TestEmpiricalCDF:
    def test_samples_within_support(self):
        cdf = web_search_flow_sizes()
        rng = np.random.default_rng(0)
        for _ in range(200):
            value = cdf.sample(rng)
            assert 6 * 1024 <= value <= 30 * 1024 * 1024

    def test_heavy_tail_shape(self):
        cdf = web_search_flow_sizes()
        rng = np.random.default_rng(1)
        samples = [cdf.sample(rng) for _ in range(4000)]
        median = float(np.median(samples))
        mean = float(np.mean(samples))
        assert mean > 3 * median  # heavy-tailed: mean far above median

    def test_invalid_cdfs_rejected(self):
        with pytest.raises(ConfigError):
            EmpiricalCDF([(1, 0.0)])
        with pytest.raises(ConfigError):
            EmpiricalCDF([(1, 0.1), (2, 1.0)])  # must start at 0
        with pytest.raises(ConfigError):
            EmpiricalCDF([(1, 0.0), (2, 0.5)])  # must end at 1
        with pytest.raises(ConfigError):
            EmpiricalCDF([(1, 0.0), (2, 0.7), (3, 0.5), (4, 1.0)])


class TestPacketSizes:
    def test_bimodal_modes_only(self):
        sizes = BimodalPacketSizes()
        rng = np.random.default_rng(0)
        observed = {sizes.sample(rng) for _ in range(100)}
        assert observed <= {200, 1400}
        assert len(observed) == 2

    def test_mean_bytes(self):
        sizes = BimodalPacketSizes(small=200, large=1400, small_fraction=0.5)
        assert sizes.mean_bytes == 800

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ConfigError):
            BimodalPacketSizes(small_fraction=1.5)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigError):
            BimodalPacketSizes(small=32)


class TestAccessPatterns:
    def test_uniform_covers_range(self):
        sampler = UniformAccess(16)
        rng = np.random.default_rng(0)
        seen = {sampler.sample(rng) for _ in range(500)}
        assert seen == set(range(16))

    def test_skewed_concentrates_on_hot_set(self):
        sampler = SkewedAccess(size=100, hot_fraction=0.3, hot_weight=0.95)
        rng = np.random.default_rng(0)
        samples = [sampler.sample(rng) for _ in range(2000)]
        hot = sum(1 for s in samples if s < sampler.hot_count)
        assert 0.9 < hot / len(samples) < 1.0

    def test_skewed_cold_indexes_possible(self):
        sampler = SkewedAccess(size=100, hot_fraction=0.3, hot_weight=0.5)
        rng = np.random.default_rng(0)
        samples = {sampler.sample(rng) for _ in range(2000)}
        assert any(s >= sampler.hot_count for s in samples)

    def test_zipf_skews_to_low_ranks(self):
        rng = np.random.default_rng(0)
        samples = zipf_access(100, 1.2, rng, 2000)
        assert (samples < 10).mean() > 0.5

    def test_invalid_patterns_rejected(self):
        with pytest.raises(ConfigError):
            UniformAccess(0)
        with pytest.raises(ConfigError):
            SkewedAccess(size=10, hot_fraction=0.0)
        with pytest.raises(ConfigError):
            SkewedAccess(size=10, hot_weight=1.5)


class TestTraces:
    def test_line_rate_spacing(self):
        trace = line_rate_trace(100, 4, lambda r, i: {"x": 0}, seed=0)
        gaps = [b.arrival - a.arrival for a, b in zip(trace, trace[1:])]
        assert all(abs(g - 0.25) < 1e-9 for g in gaps)  # 4 pkts per tick

    def test_packet_size_scales_gap(self):
        trace = line_rate_trace(
            10, 4, lambda r, i: {"x": 0}, packet_size=128, seed=0
        )
        assert trace[1].arrival - trace[0].arrival == pytest.approx(0.5)

    def test_utilization_scales_gap(self):
        trace = line_rate_trace(
            10, 4, lambda r, i: {"x": 0}, utilization=0.5, seed=0
        )
        assert trace[1].arrival - trace[0].arrival == pytest.approx(0.5)

    def test_ports_assigned_round_robin(self):
        trace = line_rate_trace(10, 2, lambda r, i: {"x": 0}, num_ports=4, seed=0)
        assert [p.port for p in trace[:5]] == [0, 1, 2, 3, 0]

    def test_invalid_params_rejected(self):
        with pytest.raises(ConfigError):
            line_rate_trace(0, 4, lambda r, i: {})
        with pytest.raises(ConfigError):
            line_rate_trace(10, 4, lambda r, i: {}, packet_size=32)
        with pytest.raises(ConfigError):
            line_rate_trace(10, 4, lambda r, i: {}, utilization=0.0)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((0, 1.0), "num_packets must be >= 1"),
            ((-3, 1.0), "num_packets must be >= 1"),
            ((10, 0.0), "utilization must be in"),
            ((10, 1.5), "utilization must be in"),
        ],
    )
    def test_every_generator_refuses_bad_count_and_load(self, args, message):
        num_packets, utilization = args

        def gen(rng, i):
            return {"x": 0}

        calls = [
            lambda: line_rate_trace(num_packets, 4, gen, utilization=utilization),
            lambda: variable_size_trace(num_packets, 4, gen, utilization=utilization),
            lambda: FlowWorkload(num_pipelines=4, utilization=utilization).generate(
                num_packets
            ),
            lambda: FLOWLET.workload(num_packets, 4, utilization=utilization),
        ]
        for call in calls:
            with pytest.raises(ConfigError, match=message):
                call()

    def test_sensitivity_trace_refuses_an_empty_trace(self):
        with pytest.raises(ConfigError, match="num_packets must be >= 1"):
            sensitivity_trace(0, 4, 2, 16)

    def test_variable_size_trace_sizes_bimodal(self):
        trace = variable_size_trace(200, 4, lambda r, i: {"x": 0}, seed=0)
        assert {p.size_bytes for p in trace} <= {200, 1400}

    def test_clone_is_deep_enough(self):
        trace = line_rate_trace(5, 2, lambda r, i: {"x": 1}, seed=0)
        copy = clone_packets(trace)
        copy[0].headers["x"] = 99
        assert trace[0].headers["x"] == 1

    def test_reference_trace_scales_time(self):
        trace = line_rate_trace(4, 4, lambda r, i: {"x": 0}, seed=0)
        ref = reference_trace(trace, 4)
        assert ref[1][0] - ref[0][0] == pytest.approx(1.0)


class TestFlowWorkload:
    def test_flow_fields_present(self):
        workload = FlowWorkload(num_pipelines=4, seed=0)
        packets = workload.generate(200)
        for pkt in packets:
            assert "sport" in pkt.headers
            assert "dport" in pkt.headers
            assert pkt.flow_id is not None

    def test_flows_reused_across_packets(self):
        workload = FlowWorkload(num_pipelines=4, active_flows=8, seed=0)
        packets = workload.generate(400)
        flows = {p.flow_id for p in packets}
        assert len(flows) < 400  # multi-packet flows exist

    def test_deterministic_given_seed(self):
        a = FlowWorkload(num_pipelines=4, seed=5).generate(50)
        b = FlowWorkload(num_pipelines=4, seed=5).generate(50)
        assert [p.headers for p in a] == [p.headers for p in b]

    def test_extra_fields_applied(self):
        workload = FlowWorkload(
            num_pipelines=4,
            seed=0,
            extra_fields=lambda rng, pkt: {"marker": 7},
        )
        packets = workload.generate(10)
        assert all(p.headers["marker"] == 7 for p in packets)

    def test_arrival_monotone(self):
        packets = FlowWorkload(num_pipelines=4, seed=0).generate(100)
        arrivals = [p.arrival for p in packets]
        assert arrivals == sorted(arrivals)


class TestSyntheticPrograms:
    def test_source_shape(self):
        source = synthetic_source(3, 64)
        assert source.count("int reg") == 3
        assert "reg2[p.idx2]" in source

    def test_zero_stateful_is_stateless(self):
        program = make_sensitivity_program(0, 64)
        assert program.is_stateless

    def test_program_stage_layout(self):
        program = make_sensitivity_program(4, 512)
        assert len(program.stateful_stage_indexes) == 4
        assert all(p.shardable for p in program.arrays.values())

    def test_trace_headers_in_range(self):
        trace = sensitivity_trace(50, 4, 2, 16, pattern="uniform", seed=0)
        for pkt in trace:
            assert 0 <= pkt.headers["idx0"] < 16
            assert 0 <= pkt.headers["idx1"] < 16

    def test_skewed_trace_pattern(self):
        trace = sensitivity_trace(1000, 4, 1, 100, pattern="skewed", seed=0)
        hot = sum(1 for p in trace if p.headers["idx0"] < 30)
        assert hot > 900

    def test_unknown_pattern_rejected(self):
        with pytest.raises(ConfigError):
            sensitivity_trace(10, 4, 1, 16, pattern="magic")

    def test_invalid_source_params_rejected(self):
        with pytest.raises(ConfigError):
            synthetic_source(-1, 16)
        with pytest.raises(ConfigError):
            synthetic_source(2, 0)
