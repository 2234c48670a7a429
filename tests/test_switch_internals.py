"""White-box tests of MP5Switch internals: drop cleanup, steering
metadata validity under remapping, resolution details."""

import pytest

from repro.compiler import compile_program
from repro.mp5 import MP5Config, MP5Switch
from repro.workloads import (
    line_rate_trace,
    make_sensitivity_program,
    sensitivity_trace,
)


class TestDropCleanup:
    def test_dropped_packet_releases_in_flight_counters(self):
        program = compile_program("heavy_hitter")
        trace = line_rate_trace(
            400, 4, lambda r, i: {"src_ip": int(r.integers(0, 4)), "hot": 0}, seed=0
        )
        switch = MP5Switch(program, MP5Config(num_pipelines=4, fifo_capacity=2))
        stats = switch.run(trace)
        assert stats.dropped > 0
        # After the run drains, every in-flight counter is back to zero —
        # a leak would permanently block remapping of those indexes.
        assert int(switch.sharder.arrays["counts"].in_flight.sum()) == 0

    def test_dropped_packet_phantoms_do_not_block_forever(self):
        # Two stateful stages: packets dropped at the first stage have a
        # phantom waiting at the second; it must be expired, or the
        # second stage would deadlock.
        program = make_sensitivity_program(2, 2)
        trace = sensitivity_trace(400, 4, 2, 2, pattern="uniform", seed=0)
        switch = MP5Switch(program, MP5Config(num_pipelines=4, fifo_capacity=2))
        stats = switch.run(trace)
        assert stats.dropped > 0
        assert stats.egressed + stats.dropped == stats.offered
        # All queues fully drained.
        for fifo in switch.fifos.values():
            assert fifo.data_occupancy() == 0

    def test_drop_reason_propagates(self):
        program = compile_program("sequencer")
        trace = line_rate_trace(300, 4, lambda r, i: {"seq": 0}, seed=0)
        switch = MP5Switch(program, MP5Config(num_pipelines=4, fifo_capacity=1))
        switch.run(trace, record_access_order=True)
        dropped = [p for p in switch.packets if p.dropped]
        assert dropped
        assert all(p.egress_tick is None for p in dropped)


class TestSteeringMetadataValidity:
    def test_in_flight_indexes_never_remapped(self):
        # Instrumented run: after every tick, any index with in-flight
        # packets must still map to the pipeline its packets were
        # resolved to. We approximate by checking the engine completes a
        # heavy remapping run without no_phantom drops, which is the
        # failure signature of stale steering metadata.
        program = compile_program("heavy_hitter")
        trace = line_rate_trace(
            3000,
            4,
            lambda r, i: {"src_ip": int(r.integers(0, 32)), "hot": 0},
            seed=1,
        )
        switch = MP5Switch(
            program, MP5Config(num_pipelines=4, remap_period=10)
        )
        stats = switch.run(trace)
        assert stats.drops_no_phantom == 0
        assert stats.dropped == 0
        assert stats.remap_moves > 0

    def test_remap_moves_counted_per_changed_array(self):
        program = make_sensitivity_program(4, 64)
        trace = sensitivity_trace(2000, 4, 4, 64, pattern="skewed", seed=2)
        switch = MP5Switch(program, MP5Config(num_pipelines=4, remap_period=25))
        stats = switch.run(trace)
        total_array_moves = sum(
            state.moves for state in switch.sharder.arrays.values()
        )
        assert stats.remap_moves == total_array_moves


class TestResolutionDetails:
    def test_entry_metadata_recorded(self):
        program = compile_program("heavy_hitter")
        trace = line_rate_trace(
            40, 4, lambda r, i: {"src_ip": i, "hot": 0}, seed=0
        )
        switch = MP5Switch(program, MP5Config(num_pipelines=4))
        switch.run(trace, record_access_order=True)
        for pkt in switch.packets:
            assert 0 <= pkt.entry_pipeline < 4
            assert pkt.entry_tick >= 0
            assert len(pkt.accesses) == 1
            assert pkt.accesses[0].completed

    def test_spray_is_round_robin_in_arrival_order(self):
        program = compile_program("stateless_rewrite")
        trace = line_rate_trace(
            8, 4, lambda r, i: {"ttl": 64, "dscp": 0, "out": 0}, seed=0
        )
        switch = MP5Switch(program, MP5Config(num_pipelines=4))
        switch.run(trace, record_access_order=True)
        pipes = [
            p.entry_pipeline for p in sorted(switch.packets, key=lambda p: p.pkt_id)
        ]
        assert pipes == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_resolved_index_wraps_array_size(self):
        program = compile_program("heavy_hitter")  # counts[4096]
        trace = line_rate_trace(
            10, 2, lambda r, i: {"src_ip": 2**30 + i, "hot": 0}, seed=0
        )
        switch = MP5Switch(program, MP5Config(num_pipelines=2))
        switch.run(trace, record_access_order=True)
        for pkt in switch.packets:
            assert 0 <= pkt.accesses[0].index < 4096

    def test_depth_extends_to_pipeline_depth(self):
        program = compile_program("packet_counter")  # 2 stages
        switch = MP5Switch(program, MP5Config(num_pipelines=2, pipeline_depth=16))
        assert switch.depth == 16

    def test_depth_grows_for_deep_programs(self):
        program = compile_program("bloom_filter")  # 8 stages
        switch = MP5Switch(program, MP5Config(num_pipelines=2, pipeline_depth=4))
        assert switch.depth == program.stage_count


class TestAffinitySpray:
    def test_affinity_reduces_steering(self):
        from repro.mp5 import MP5Config, MP5Switch

        program = compile_program("heavy_hitter")
        trace = line_rate_trace(
            1500, 4, lambda r, i: {"src_ip": int(r.integers(0, 512)), "hot": 0},
            seed=5,
        )
        results = {}
        for policy in ("roundrobin", "affinity"):
            switch = MP5Switch(
                program, MP5Config(num_pipelines=4, spray_policy=policy)
            )
            stats = switch.run(trace)
            results[policy] = stats
        assert (
            results["affinity"].steering_moves
            < results["roundrobin"].steering_moves
        )
        assert results["affinity"].throughput_normalized() >= (
            results["roundrobin"].throughput_normalized() - 0.03
        )

    def test_affinity_preserves_equivalence(self):
        from repro.equivalence import check_equivalence
        from repro.mp5 import MP5Config

        program = compile_program("figure3")
        trace = line_rate_trace(
            400,
            2,
            lambda r, i: {
                "h1": int(r.integers(0, 4)),
                "h2": int(r.integers(0, 4)),
                "h3": int(r.integers(0, 4)),
                "mux": int(r.integers(0, 2)),
                "val": 0,
            },
            seed=6,
        )
        report = check_equivalence(
            program, trace, MP5Config(num_pipelines=2, spray_policy="affinity")
        )
        assert report.equivalent
        assert report.c1_violating_packets == 0

    def test_stateless_program_falls_back_to_roundrobin(self):
        from repro.mp5 import MP5Config, MP5Switch

        program = compile_program("stateless_rewrite")
        trace = line_rate_trace(
            8, 4, lambda r, i: {"ttl": 64, "dscp": 0, "out": 0}, seed=0
        )
        switch = MP5Switch(
            program, MP5Config(num_pipelines=4, spray_policy="affinity")
        )
        switch.run(trace, record_access_order=True)
        pipes = [
            p.entry_pipeline for p in sorted(switch.packets, key=lambda p: p.pkt_id)
        ]
        assert pipes == [0, 1, 2, 3, 0, 1, 2, 3]

    def test_unknown_policy_rejected(self):
        from repro.errors import ConfigError
        from repro.mp5 import MP5Config

        with pytest.raises(ConfigError):
            MP5Config(spray_policy="magic")
