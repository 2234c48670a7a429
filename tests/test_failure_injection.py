"""Failure injection: the limits on functional equivalence (§3.5.1).

The paper is explicit that functional equivalence assumes no packet
loss, and analyzes how a loss violates it: the lost packet misses its
downstream register updates, and subsequent packets see a different
state. These tests inject phantom-channel loss and FIFO overflows and
verify (a) the switch itself stays consistent (no deadlock, conservation
of packets), and (b) the equivalence checker *detects* the divergence
exactly as §3.5.1 predicts.
"""

import pytest

from repro.banzai import run_reference
from repro.compiler import compile_program
from repro.equivalence import check_equivalence
from repro.mp5 import MP5Config, MP5Switch, run_mp5
from repro.workloads import line_rate_trace, reference_trace


class TestPhantomLoss:
    def _run(self, loss, n=400, program_name="sequencer"):
        program = compile_program(program_name)
        trace = line_rate_trace(
            n, 4, lambda r, i: {"seq": 0}, packet_size=256, seed=1
        )
        config = MP5Config(num_pipelines=4, phantom_loss_rate=loss)
        switch = MP5Switch(program, config)
        stats = switch.run(trace, record_access_order=True)
        return program, switch.packets, switch, stats

    def test_conservation_under_loss(self):
        _prog, _pkts, _switch, stats = self._run(loss=0.05)
        assert stats.dropped > 0
        assert stats.egressed + stats.dropped == stats.offered

    def test_no_deadlock_under_heavy_loss(self):
        _prog, _pkts, _switch, stats = self._run(loss=0.5)
        assert stats.ticks < 100000
        assert stats.egressed + stats.dropped == stats.offered

    def test_register_state_diverges_as_paper_predicts(self):
        # §3.5.1: "if a packet is lost in stage i ... it can no longer
        # update any potential register state", so the final counter
        # value falls short of the reference — and the checker sees it.
        program, packets, switch, stats = self._run(loss=0.1)
        assert stats.dropped > 0
        expected_reference_count = stats.offered
        actual = switch.registers["count"][0]
        assert actual == stats.offered - stats.dropped
        assert actual < expected_reference_count

    def test_checker_flags_divergence(self):
        program = compile_program("sequencer")
        trace = line_rate_trace(
            400, 4, lambda r, i: {"seq": 0}, packet_size=256, seed=1
        )
        report = check_equivalence(
            program, trace, MP5Config(num_pipelines=4, phantom_loss_rate=0.1)
        )
        assert not report.register_equal
        assert report.dropped_packets > 0

    def test_zero_loss_rate_is_default_behavior(self):
        _prog, _pkts, _switch, stats = self._run(loss=0.0)
        assert stats.dropped == 0

    def test_survivors_remain_ordered(self):
        # Even under loss, surviving packets access state in arrival
        # order relative to one another (their phantoms queued in order).
        program, packets, _switch, _stats = self._run(loss=0.1)
        delivered = [p for p in packets if p.egress_tick is not None]
        seqs = [
            p.headers["seq"] for p in sorted(delivered, key=lambda p: p.pkt_id)
        ]
        assert seqs == sorted(seqs)

    def test_invalid_loss_rate_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            MP5Config(phantom_loss_rate=1.0)
        with pytest.raises(ConfigError):
            MP5Config(phantom_loss_rate=-0.1)


class TestOverflowLoss:
    def test_tiny_fifo_overflow_diverges_but_is_detected(self):
        program = compile_program("heavy_hitter")
        trace = line_rate_trace(
            600,
            4,
            lambda r, i: {"src_ip": int(r.integers(0, 4)), "hot": 0},
            seed=2,
        )
        # Four sources hammer four counters; 2-entry FIFOs overflow.
        config = MP5Config(num_pipelines=4, fifo_capacity=2)
        reference = run_reference(program, reference_trace(trace, 4))
        switch = MP5Switch(program, config)
        stats = switch.run(trace)
        assert stats.dropped > 0
        ref_total = sum(reference.registers.snapshot()["counts"])
        got_total = sum(switch.registers["counts"])
        assert got_total == stats.egressed
        assert got_total < ref_total

    def test_drop_reasons_recorded(self):
        program = compile_program("sequencer")
        trace = line_rate_trace(300, 4, lambda r, i: {"seq": 0}, seed=0)
        switch = MP5Switch(program, MP5Config(num_pipelines=4, fifo_capacity=2))
        switch.run(trace, record_access_order=True)
        reasons = {p.drop_reason for p in switch.packets if p.dropped}
        assert reasons <= {"no_phantom", "phantom_fifo_full", "fifo_full"}
        assert reasons
