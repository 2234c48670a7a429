"""Failure injection: the limits on functional equivalence (§3.5.1).

The paper is explicit that functional equivalence assumes no packet
loss, and analyzes how a loss violates it: the lost packet misses its
downstream register updates, and subsequent packets see a different
state. These tests inject phantom-channel loss and FIFO overflows and
verify (a) the switch itself stays consistent (no deadlock, conservation
of packets), and (b) the equivalence checker *detects* the divergence
exactly as §3.5.1 predicts. Uniform loss is a ``phantom_channel`` fault
window that spans the run (:func:`whole_run_loss`).
"""

import pytest

from repro.banzai import BanzaiPipeline, run_reference
from repro.compiler import compile_program
from repro.equivalence import compare_runs
from repro.errors import ConfigError
from repro.faults import FaultEvent, FaultSchedule
from repro.mp5 import MP5Config, MP5Switch
from repro.workloads import line_rate_trace, reference_trace


def whole_run_loss(rate: float) -> FaultSchedule:
    """§3.5.1's uniform phantom loss: one ``phantom_channel`` window from
    tick 0 that outlasts any run here; no window at all for rate 0."""
    if not rate:
        return FaultSchedule()
    return FaultSchedule(
        faults=[
            FaultEvent(
                "phantom_channel", start=0, duration=10**9, loss_rate=rate
            )
        ]
    )


class TestPhantomLoss:
    def _trace(self, n=400):
        return line_rate_trace(
            n, 4, lambda r, i: {"seq": 0}, packet_size=256, seed=1
        )

    def _run(self, loss, n=400, program_name="sequencer"):
        program = compile_program(program_name)
        switch = MP5Switch(program, MP5Config(num_pipelines=4))
        switch.attach_faults(whole_run_loss(loss))
        stats = switch.run(self._trace(n), record_access_order=True)
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
        program, _pkts, switch, _stats = self._run(loss=0.1)
        reference = BanzaiPipeline(program).run(
            reference_trace(self._trace(), 4), record_access_order=True
        )
        report = compare_runs(program, reference, switch)
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
        with pytest.raises(ConfigError):
            whole_run_loss(1.5)
        with pytest.raises(ConfigError):
            whole_run_loss(-0.1)
        with pytest.raises(TypeError):  # the config knob is gone
            MP5Config(phantom_loss_rate=0.1)


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
