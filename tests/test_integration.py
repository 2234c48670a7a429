"""Cross-module integration tests: the full toolchain end to end."""

import pytest

from repro.banzai import run_reference
from repro.compiler import BanzaiTarget, compile_program
from repro.domino import program_names
from repro.equivalence import check_equivalence
from repro.mp5 import (
    FLOW_ORDER_ARRAY,
    MP5Config,
    MP5Switch,
    VectorSwitch,
    run_mp5,
    run_mp5_reference,
)
from repro.workloads import (
    FlowWorkload,
    line_rate_trace,
    reference_trace,
)

HEADER_GENERATORS = {
    "bloom_filter": lambda r, i: {"key": int(r.integers(0, 80)), "member": 0},
    "conga": lambda r, i: {
        "util": int(r.integers(0, 100)),
        "path_id": int(r.integers(0, 8)),
    },
    "figure3": lambda r, i: {
        "h1": int(r.integers(0, 4)),
        "h2": int(r.integers(0, 4)),
        "h3": int(r.integers(0, 4)),
        "mux": int(r.integers(0, 2)),
        "val": 0,
    },
    "flowlet": lambda r, i: {
        "sport": int(r.integers(0, 30)),
        "dport": int(r.integers(0, 30)),
        "arrival": i,
        "new_hop": 0,
        "next_hop": 0,
        "id": 0,
    },
    "heavy_hitter": lambda r, i: {"src_ip": int(r.integers(0, 200)), "hot": 0},
    "packet_counter": lambda r, i: {"dummy": 0},
    "rcp": lambda r, i: {
        "rtt": int(r.integers(0, 60)),
        "size_bytes": int(r.integers(64, 1500)),
    },
    "sampled_netflow": lambda r, i: {"sampled": 0},
    "avq": lambda r, i: {
        "bytes": int(r.integers(64, 1500)),
        "now": i // 4,
        "mark": 0,
    },
    "netcache": lambda r, i: {
        "key": int(r.integers(0, 100)),
        "is_read": int(r.random() < 0.9),
        "value_in": int(r.integers(0, 1000)),
        "value_out": 0,
        "cache_hit": 0,
    },
    "dctcp_alpha": lambda r, i: {
        "flow": int(r.integers(0, 40)),
        "ecn": int(r.integers(0, 2)),
        "alpha_out": 0,
    },
    "dns_ttl_change": lambda r, i: {
        "domain": int(r.integers(0, 60)),
        "ttl": int(r.integers(0, 4)),
        "suspicious": 0,
    },
    "token_bucket": lambda r, i: {
        "sport": int(r.integers(0, 30)),
        "dport": int(r.integers(0, 30)),
        "now": i,
        "allowed": 0,
    },
    "ewma_latency": lambda r, i: {
        "flow": int(r.integers(0, 40)),
        "sample": int(r.integers(0, 1000)),
        "estimate": 0,
    },
    "syn_flood": lambda r, i: {
        "dst_ip": int(r.integers(0, 50)),
        "syn": int(r.integers(0, 2)),
        "fin": int(r.integers(0, 2)),
        "under_attack": 0,
    },
    "sequencer": lambda r, i: {"seq": 0},
    "stateful_firewall": lambda r, i: {
        "src_ip": int(r.integers(0, 50)),
        "dst_ip": int(r.integers(0, 50)),
        "syn": int(r.integers(0, 2)),
        "allowed": 0,
    },
    "stateful_index": lambda r, i: {"v": i},
    "stateful_predicate": lambda r, i: {"key": int(r.integers(0, 80)), "out": 0},
    "stateless_rewrite": lambda r, i: {"ttl": 64, "dscp": 3, "out": 0},
    "wfq": lambda r, i: {
        "sport": int(r.integers(0, 30)),
        "dport": int(r.integers(0, 30)),
        "length": int(r.integers(64, 1500)),
        "start": 0,
        "id": 0,
    },
}


class TestWholeProgramSuite:
    def test_every_bundled_program_has_a_generator(self):
        assert set(HEADER_GENERATORS) == set(program_names())

    @pytest.mark.parametrize("name", sorted(HEADER_GENERATORS))
    def test_full_toolchain_equivalence(self, name):
        """Compile -> simulate on 4-pipeline MP5 -> compare against the
        single-pipeline reference: register state, packet state, C1."""
        program = compile_program(name)
        trace = line_rate_trace(350, 4, HEADER_GENERATORS[name], seed=42)
        report = check_equivalence(program, trace, MP5Config(num_pipelines=4))
        assert report.equivalent, f"{name}:\n{report.summary()}"
        assert report.c1_violating_packets == 0

    @pytest.mark.parametrize("name", ["figure3", "flowlet", "wfq"])
    def test_equivalence_on_flow_structured_traffic(self, name):
        program = compile_program(name)
        extra = {
            "figure3": lambda rng, pkt: {
                "h1": pkt.flow_id % 4,
                "h2": (pkt.flow_id * 3) % 4,
                "h3": (pkt.flow_id * 7) % 4,
                "mux": pkt.flow_id % 2,
                "val": 0,
            },
            "flowlet": lambda rng, pkt: {
                "arrival": int(pkt.arrival),
                "new_hop": 0,
                "next_hop": 0,
                "id": 0,
            },
            "wfq": lambda rng, pkt: {
                "length": pkt.size_bytes,
                "start": 0,
                "id": 0,
            },
        }[name]
        workload = FlowWorkload(num_pipelines=4, seed=13, extra_fields=extra)
        trace = workload.generate(400)
        report = check_equivalence(program, trace, MP5Config(num_pipelines=4))
        assert report.equivalent, name


#: Every value is a 32-bit two's-complement int (docs/language.md), so
#: a literal or initialiser outside that range wraps where it enters
#: the compiler: 4294967297 is 1, 2**70 is 0. name -> (source, final
#: registers after 50 packets).
OUT_OF_RANGE_LITERALS = {
    "divisor": (
        "struct Packet { int x; };\nint count = 0;\n"
        "void func(struct Packet p) { count = count / 4294967297 + 1; }",
        {"count": [50]},
    ),
    "select_arm": (
        "struct Packet { int x; };\nint count = 0;\n"
        "void func(struct Packet p) "
        "{ count = (count > 5) ? 4294967297 : count + 1; }",
        {"count": [2]},
    ),
    "initialiser": (
        "struct Packet { int x; };\n"
        "int count = 1180591620717411303424;\n"
        "int seen[4] = {1180591620717411303425};\n"
        "void func(struct Packet p) { seen[p.x] = seen[p.x] + count; "
        "count = count + 1180591620717411303427; p.x = count; }",
        {"count": [150], "seen": [919, 442, 1072, 1246]},
    ),
}


class TestOutOfRangeLiterals:
    @pytest.mark.parametrize("name", sorted(OUT_OF_RANGE_LITERALS))
    def test_one_answer_on_every_engine_and_banzai(self, name):
        source, expected = OUT_OF_RANGE_LITERALS[name]
        program = compile_program(source, name=name)
        config = MP5Config(num_pipelines=2)

        def trace():
            return line_rate_trace(
                50, 2, lambda r, i: {"x": int(r.integers(0, 8))}, seed=1
            )

        switch = VectorSwitch(program, config)  # no fallback permitted
        vec_stats = switch.run(trace())
        vec_regs = {
            reg: values
            for reg, values in switch.registers.items()
            if reg != FLOW_ORDER_ARRAY
        }
        assert vec_regs == expected
        for runner in (run_mp5, run_mp5_reference):
            assert runner(program, trace(), config) == (vec_stats, vec_regs)
        report = check_equivalence(program, trace(), config)
        assert report.equivalent, f"{name}:\n{report.summary()}"


class TestTargetVariations:
    def test_equivalence_holds_on_shallow_target(self):
        # Compile for an 8-stage machine (fewer stages, same semantics).
        program = compile_program("figure3", target=BanzaiTarget(num_stages=8))
        trace = line_rate_trace(
            200, 2, HEADER_GENERATORS["figure3"], seed=3
        )
        report = check_equivalence(
            program, trace, MP5Config(num_pipelines=2, pipeline_depth=8)
        )
        assert report.equivalent

    def test_pinned_fallback_still_equivalent(self):
        # Force bloom_filter into the co-staged/pinned fallback and check
        # functional equivalence survives the loss of sharding.
        program = compile_program("bloom_filter", target=BanzaiTarget(num_stages=7))
        trace = line_rate_trace(
            250, 4, HEADER_GENERATORS["bloom_filter"], seed=4
        )
        report = check_equivalence(
            program, trace, MP5Config(num_pipelines=4, pipeline_depth=8)
        )
        assert report.equivalent


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        program = compile_program("heavy_hitter")
        trace = line_rate_trace(400, 4, HEADER_GENERATORS["heavy_hitter"], seed=8)
        stats_a, regs_a = run_mp5(program, trace, MP5Config(num_pipelines=4))
        stats_b, regs_b = run_mp5(program, trace, MP5Config(num_pipelines=4))
        assert regs_a == regs_b
        assert stats_a.egress_ticks == stats_b.egress_ticks
        assert stats_a.remap_moves == stats_b.remap_moves

    def test_reference_deterministic(self):
        program = compile_program("figure3")
        trace = line_rate_trace(150, 2, HEADER_GENERATORS["figure3"], seed=8)
        a = run_reference(program, reference_trace(trace, 2))
        b = run_reference(program, reference_trace(trace, 2))
        assert a.registers.snapshot() == b.registers.snapshot()
