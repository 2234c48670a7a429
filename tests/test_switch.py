"""Tests for the MP5 switch engine (§3.2-§3.4)."""

import numpy as np
import pytest

from repro.banzai import run_reference
from repro.compiler import compile_program
from repro.errors import ConfigError
from repro.mp5 import (
    FLOW_ORDER_ARRAY,
    MP5Config,
    MP5Switch,
    c1_metrics,
    run_mp5,
)
from repro.workloads import (
    line_rate_trace,
    reference_trace,
    make_sensitivity_program,
    sensitivity_trace,
)

from .conftest import figure3_headers, heavy_hitter_headers


def equivalence_ok(program, trace, config):
    reference = run_reference(program, reference_trace(trace, config.num_pipelines))
    switch = MP5Switch(program, config)
    switch.run(trace, record_access_order=True)
    ref_regs = reference.registers.snapshot()
    for name, want in ref_regs.items():
        if tuple(switch.registers[name]) != want:
            return False, switch
    report = c1_metrics(
        reference.access_order, switch.stats.access_order, switch.stats.offered
    )
    return report.displaced_packets == 0, switch


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("k", [1, 2, 4, 8])
    def test_heavy_hitter_equivalent_at_any_width(self, heavy_hitter_program, k):
        trace = line_rate_trace(600, k, heavy_hitter_headers, seed=k)
        ok, _ = equivalence_ok(heavy_hitter_program, trace, MP5Config(num_pipelines=k))
        assert ok

    def test_figure3_equivalent(self, figure3_program, figure3_trace):
        ok, _ = equivalence_ok(figure3_program, figure3_trace, MP5Config(num_pipelines=2))
        assert ok

    def test_sequencer_stamps_arrival_order(self, sequencer_program):
        trace = line_rate_trace(200, 4, lambda r, i: {"seq": 0}, seed=1)
        switch = MP5Switch(sequencer_program, MP5Config(num_pipelines=4))
        switch.run(trace, record_access_order=True)
        for pkt in switch.packets:
            assert pkt.egress_tick is not None
            assert pkt.headers["seq"] == pkt.pkt_id + 1

    @pytest.mark.parametrize(
        "name",
        ["flowlet", "wfq", "conga", "bloom_filter", "stateful_index",
         "stateful_predicate", "rcp"],
    )
    def test_program_suite_equivalent(self, name):
        program = compile_program(name)
        rng_fields = {
            "flowlet": lambda r, i: {
                "sport": int(r.integers(0, 40)), "dport": int(r.integers(0, 40)),
                "arrival": i, "new_hop": 0, "next_hop": 0, "id": 0,
            },
            "wfq": lambda r, i: {
                "sport": int(r.integers(0, 40)), "dport": int(r.integers(0, 40)),
                "length": int(r.integers(64, 1500)), "start": 0, "id": 0,
            },
            "conga": lambda r, i: {
                "util": int(r.integers(0, 100)), "path_id": int(r.integers(0, 8)),
            },
            "bloom_filter": lambda r, i: {
                "key": int(r.integers(0, 100)), "member": 0,
            },
            "stateful_index": lambda r, i: {"v": i},
            "stateful_predicate": lambda r, i: {
                "key": int(r.integers(0, 100)), "out": 0,
            },
            "rcp": lambda r, i: {
                "rtt": int(r.integers(0, 60)), "size_bytes": int(r.integers(64, 1500)),
            },
        }[name]
        trace = line_rate_trace(400, 4, rng_fields, seed=11)
        ok, _ = equivalence_ok(program, trace, MP5Config(num_pipelines=4))
        assert ok, name

    def test_equivalent_with_ideal_config(self, heavy_hitter_program):
        trace = line_rate_trace(500, 4, heavy_hitter_headers, seed=2)
        ok, _ = equivalence_ok(
            heavy_hitter_program, trace, MP5Config.ideal(num_pipelines=4)
        )
        assert ok

    def test_equivalent_with_random_initial_shard(self, heavy_hitter_program):
        trace = line_rate_trace(500, 4, heavy_hitter_headers, seed=3)
        ok, _ = equivalence_ok(
            heavy_hitter_program,
            trace,
            MP5Config(num_pipelines=4, initial_shard="random"),
        )
        assert ok

    def test_equivalent_with_optimal_remap(self, heavy_hitter_program):
        trace = line_rate_trace(500, 4, heavy_hitter_headers, seed=4)
        ok, _ = equivalence_ok(
            heavy_hitter_program,
            trace,
            MP5Config(num_pipelines=4, remap_algorithm="optimal"),
        )
        assert ok


class TestThroughputInvariants:
    def test_stateless_program_line_rate(self):
        program = compile_program("stateless_rewrite")
        trace = line_rate_trace(
            1000, 4, lambda r, i: {"ttl": 64, "dscp": 0, "out": 0}, seed=0
        )
        stats, _ = run_mp5(program, trace, MP5Config(num_pipelines=4))
        assert stats.throughput_normalized() >= 0.99
        assert stats.max_queue_depth == 0

    def test_global_counter_limited_to_one_pipeline(self, sequencer_program):
        trace = line_rate_trace(1200, 4, lambda r, i: {"seq": 0}, seed=0)
        stats, _ = run_mp5(sequencer_program, trace, MP5Config(num_pipelines=4))
        assert stats.throughput_normalized() == pytest.approx(0.25, abs=0.03)

    def test_sharded_table_near_line_rate(self, heavy_hitter_program):
        trace = line_rate_trace(2000, 4, heavy_hitter_headers, seed=1)
        stats, _ = run_mp5(heavy_hitter_program, trace, MP5Config(num_pipelines=4))
        assert stats.throughput_normalized() > 0.9

    def test_larger_packets_reach_line_rate(self, sequencer_program):
        # At 512 B the arrival rate is 1/8 of 64 B line rate: even a
        # global counter keeps up (Figure 7d / §4.4 insight).
        trace = line_rate_trace(
            600, 4, lambda r, i: {"seq": 0}, packet_size=512, seed=0
        )
        stats, _ = run_mp5(sequencer_program, trace, MP5Config(num_pipelines=4))
        assert stats.throughput_normalized() >= 0.99

    def test_all_packets_egress_without_caps(self, heavy_hitter_program):
        trace = line_rate_trace(500, 2, heavy_hitter_headers, seed=5)
        stats, _ = run_mp5(heavy_hitter_program, trace, MP5Config(num_pipelines=2))
        assert stats.egressed == stats.offered
        assert stats.dropped == 0

    def test_max_ticks_truncates(self, sequencer_program):
        trace = line_rate_trace(500, 4, lambda r, i: {"seq": 0}, seed=0)
        stats, _ = run_mp5(
            sequencer_program, trace, MP5Config(num_pipelines=4), max_ticks=50
        )
        assert stats.ticks == 50
        assert stats.egressed < stats.offered


class TestPhantomMechanics:
    def test_phantoms_generated_per_access(self, heavy_hitter_program):
        trace = line_rate_trace(100, 2, heavy_hitter_headers, seed=0)
        stats, _ = run_mp5(heavy_hitter_program, trace, MP5Config(num_pipelines=2))
        assert stats.phantoms_generated == 100  # one array access per packet

    def test_no_phantoms_when_disabled(self, heavy_hitter_program):
        trace = line_rate_trace(100, 2, heavy_hitter_headers, seed=0)
        cfg = MP5Config(num_pipelines=2, enable_phantoms=False)
        stats, _ = run_mp5(heavy_hitter_program, trace, cfg)
        assert stats.phantoms_generated == 0
        assert stats.egressed == 100

    def test_resolvable_false_guard_skips_phantom(self, figure3_program):
        # mux==1 packets access reg1 but never reg2, so phantom count is
        # 2 per packet (reg1 + reg3), not 3.
        trace = line_rate_trace(
            50, 2,
            lambda r, i: {"h1": 0, "h2": 0, "h3": 0, "mux": 1, "val": 0},
            seed=0,
        )
        stats, _ = run_mp5(figure3_program, trace, MP5Config(num_pipelines=2))
        assert stats.phantoms_generated == 100

    def test_conservative_phantom_wastes_slot(self):
        program = compile_program("stateful_predicate")
        trace = line_rate_trace(
            60, 2, lambda r, i: {"key": int(r.integers(0, 50)), "out": 0}, seed=0
        )
        stats, _ = run_mp5(program, trace, MP5Config(num_pipelines=2))
        # mode==0 always: table_b phantoms are all wasted.
        assert stats.wasted_slots == 60

    def test_capped_fifo_drops_and_expires(self, sequencer_program):
        # A tiny FIFO at sustained overload must drop but never deadlock.
        trace = line_rate_trace(400, 4, lambda r, i: {"seq": 0}, seed=0)
        cfg = MP5Config(num_pipelines=4, fifo_capacity=4)
        stats, _ = run_mp5(sequencer_program, trace, cfg)
        assert stats.dropped > 0
        assert stats.egressed + stats.dropped == stats.offered

    def test_dropped_packets_preserve_order_of_rest(self, sequencer_program):
        trace = line_rate_trace(300, 4, lambda r, i: {"seq": 0}, seed=0)
        switch = MP5Switch(
            sequencer_program, MP5Config(num_pipelines=4, fifo_capacity=4)
        )
        switch.run(trace, record_access_order=True)
        delivered = [p for p in switch.packets if p.egress_tick is not None]
        seqs = [p.headers["seq"] for p in sorted(delivered, key=lambda p: p.pkt_id)]
        assert seqs == sorted(seqs)  # survivors still sequenced in order

    def test_phantom_latency_validated(self, heavy_hitter_program):
        with pytest.raises(ConfigError, match="slack"):
            MP5Switch(
                heavy_hitter_program,
                MP5Config(num_pipelines=2, phantom_latency=10),
            )


class TestSteeringAndSharding:
    def test_steering_counted(self, heavy_hitter_program):
        trace = line_rate_trace(500, 4, heavy_hitter_headers, seed=0)
        stats, _ = run_mp5(heavy_hitter_program, trace, MP5Config(num_pipelines=4))
        assert stats.steering_moves > 0

    def test_no_steering_with_one_pipeline(self, heavy_hitter_program):
        trace = line_rate_trace(200, 1, heavy_hitter_headers, seed=0)
        stats, _ = run_mp5(heavy_hitter_program, trace, MP5Config(num_pipelines=1))
        assert stats.steering_moves == 0

    def test_remap_runs_periodically(self, heavy_hitter_program):
        trace = line_rate_trace(2000, 4, heavy_hitter_headers, seed=0)
        cfg = MP5Config(num_pipelines=4, remap_period=50)
        switch = MP5Switch(heavy_hitter_program, cfg)
        switch.run(trace)
        # With skew-free traffic remaps may be rare but epochs must have
        # run: counters were reset (sum is small, not cumulative).
        assert switch.sharder.arrays["counts"].access_counts.sum() < 2000

    def test_pinned_array_single_pipeline(self):
        program = compile_program("stateful_index")
        trace = line_rate_trace(200, 4, lambda r, i: {"v": i}, seed=0)
        switch = MP5Switch(program, MP5Config(num_pipelines=4))
        switch.run(trace)
        mapping = switch.sharder.arrays["ring"].index_to_pipeline
        assert len(set(mapping.tolist())) == 1

    def test_fused_arrays_one_access_per_stage(self):
        program = compile_program("conga")
        trace = line_rate_trace(
            100, 2,
            lambda r, i: {"util": int(r.integers(0, 90)),
                          "path_id": int(r.integers(0, 4))},
            seed=0,
        )
        stats, _ = run_mp5(program, trace, MP5Config(num_pipelines=2))
        assert stats.phantoms_generated == 100  # one merged stage access


class TestFlowOrdering:
    def _mixed_program(self):
        # Stateful firewall: SYN packets touch state, others read it; the
        # stateless-priority rule can reorder within a flow (§3.4).
        return compile_program("stateful_firewall")

    def _mixed_trace(self, n=600, k=4, seed=0):
        def headers(rng, i):
            flow = int(rng.integers(0, 8))
            return {
                "src_ip": flow,
                "dst_ip": flow,
                "syn": int(rng.random() < 0.3),
                "allowed": 0,
            }

        trace = line_rate_trace(n, k, headers, seed=seed)
        for pkt in trace:
            pkt.flow_id = pkt.headers["src_ip"]
        return trace

    def test_flow_order_stage_restores_order(self):
        program = self._mixed_program()
        trace = self._mixed_trace()
        cfg = MP5Config(
            num_pipelines=4, flow_order_field="src_ip", flow_order_size=64
        )
        switch = MP5Switch(program, cfg)
        stats = switch.run(trace)
        assert stats.reordered_packets() == 0
        assert stats.egressed == stats.offered

    def test_flow_order_array_registered(self):
        program = self._mixed_program()
        cfg = MP5Config(num_pipelines=2, flow_order_field="src_ip")
        switch = MP5Switch(program, cfg)
        assert FLOW_ORDER_ARRAY in switch.sharder.arrays

    def test_flow_order_needs_free_stage(self, heavy_hitter_program):
        with pytest.raises(ConfigError, match="final stage"):
            MP5Switch(
                heavy_hitter_program,
                MP5Config(
                    num_pipelines=2,
                    pipeline_depth=heavy_hitter_program.stage_count,
                    flow_order_field="src_ip",
                ),
            )

    def test_flow_order_excluded_from_returned_registers(self):
        program = self._mixed_program()
        trace = self._mixed_trace(n=100)
        cfg = MP5Config(num_pipelines=2, flow_order_field="src_ip")
        _stats, registers = run_mp5(program, trace, cfg)
        assert FLOW_ORDER_ARRAY not in registers


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_pipelines": 0},
            {"num_ports": 0},
            {"pipeline_depth": 1},
            {"remap_period": 0},
            {"remap_algorithm": "magic"},
            {"initial_shard": "magic"},
            {"phantom_latency": -1},
            {"fifo_capacity": 0},
            {"flow_order_size": 0},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            MP5Config(**kwargs)

    def test_ideal_factory(self):
        cfg = MP5Config.ideal(num_pipelines=8)
        assert cfg.ideal_queues
        assert cfg.remap_algorithm == "optimal"
        assert cfg.num_pipelines == 8
