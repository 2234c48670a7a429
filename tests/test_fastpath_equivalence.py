"""Differential testing: fast engine vs the dense reference engine.

:class:`~repro.mp5.switch.MP5Switch` runs a sparse fast path (worklist
movement, tail teleport, precompiled operand readers, incremental queue
telemetry); :class:`~repro.mp5.reference.ReferenceSwitch` keeps the
original dense per-tick semantics. Every optimization in the fast path
is only admissible if the two engines produce tick-for-tick identical
:class:`~repro.mp5.stats.SwitchStats` and identical final register
state — this module asserts exactly that over fuzzed programs/traces
and over every config dimension that selects a different engine path
(ideal queues, no phantoms, ECN, flow ordering, affinity spray,
phantom latency, tiny FIFOs), plus whole-run phantom loss.
"""

import numpy as np
import pytest

from repro.compiler import compile_program
from repro.errors import ConfigError
from repro.mp5 import MP5Config, MP5Switch, run_mp5, run_mp5_reference
from repro.obs import TraceRecorder, canonical_form
from repro.workloads import line_rate_trace
from repro.workloads.synthetic import make_sensitivity_program, sensitivity_trace

from tests.test_failure_injection import whole_run_loss
from tests.test_fuzz_equivalence import FIELDS, random_program


def _assert_engines_agree(
    program,
    trace_factory,
    config,
    max_ticks=None,
    record_access_order=False,
    faults=None,
):
    """Run both engines on identical inputs; the trace is regenerated
    per engine because the simulation mutates packet objects.

    Both runs record lifecycle events, and the event streams must match
    modulo tick-internal ordering (the fast path's worklist visits
    packets in a different within-tick order than the dense scan, which
    is exactly the freedom real hardware has)."""
    fast_rec, ref_rec = TraceRecorder(), TraceRecorder()
    fast_stats, fast_regs = run_mp5(
        program,
        trace_factory(),
        config,
        max_ticks=max_ticks,
        record_access_order=record_access_order,
        recorder=fast_rec,
        faults=faults,
    )
    ref_stats, ref_regs = run_mp5_reference(
        program,
        trace_factory(),
        config,
        max_ticks=max_ticks,
        record_access_order=record_access_order,
        recorder=ref_rec,
        faults=faults,
    )
    assert fast_stats == ref_stats
    assert fast_regs == ref_regs
    _assert_event_streams_match(fast_rec.events, ref_rec.events)
    return fast_stats


def _assert_event_streams_match(fast_events, ref_events):
    fast_canon = canonical_form(fast_events)
    ref_canon = canonical_form(ref_events)
    if fast_canon == ref_canon:
        return
    for tick in sorted(set(fast_canon) | set(ref_canon)):
        if fast_canon.get(tick) != ref_canon.get(tick):
            raise AssertionError(
                f"event streams diverge at tick {tick}:\n"
                f"  fast: {fast_canon.get(tick)}\n"
                f"  ref:  {ref_canon.get(tick)}"
            )


# ---------------------------------------------------------------------------
# Fuzzed programs on the default config
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(30))
def test_fuzzed_program_engines_agree(seed):
    rng = np.random.default_rng(1000 + seed)
    source = random_program(rng)
    program = compile_program(source, name=f"fp{seed}")
    k = int(rng.integers(1, 5))

    def trace_factory():
        return line_rate_trace(
            200,
            k,
            lambda r, i: {f: int(r.integers(0, 32)) for f in FIELDS},
            seed=seed,
        )

    _assert_engines_agree(program, trace_factory, MP5Config(num_pipelines=k))


# ---------------------------------------------------------------------------
# Targeted configs: every special-cased engine path
# ---------------------------------------------------------------------------

CONFIGS = {
    "default": dict(),
    "phantom_loss": dict(),  # with whole_run_loss(0.2) attached
    "fifo_capacity_3": dict(fifo_capacity=3),
    "tiny_fifo": dict(fifo_capacity=2),
    "ideal_queues": dict(ideal_queues=True),
    "no_phantoms": dict(enable_phantoms=False),
    "ecn_flow_order": dict(ecn_threshold=4, flow_order_field="f0"),
    "affinity_spray": dict(spray_policy="affinity"),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("seed", (0, 1))
def test_engines_agree_on_config(name, seed):
    program = make_sensitivity_program(num_stateful=4, register_size=64)
    record = name == "ecn_flow_order"  # also exercise access-order logging

    def trace_factory():
        return sensitivity_trace(250, 4, 4, 64, seed=seed)

    stats = _assert_engines_agree(
        program,
        trace_factory,
        MP5Config(num_pipelines=4, **CONFIGS[name]),
        max_ticks=4000,
        record_access_order=record,
        faults=whole_run_loss(0.2) if name == "phantom_loss" else None,
    )
    assert stats.egressed + stats.dropped > 0


def test_engines_agree_single_pipeline():
    program = make_sensitivity_program(num_stateful=2, register_size=16)

    def trace_factory():
        return sensitivity_trace(150, 1, 2, 16, seed=3)

    _assert_engines_agree(program, trace_factory, MP5Config(num_pipelines=1))


def test_engines_agree_skewed_pattern():
    program = make_sensitivity_program(num_stateful=4, register_size=64)

    def trace_factory():
        return sensitivity_trace(250, 4, 4, 64, pattern="skewed", seed=0)

    _assert_engines_agree(program, trace_factory, MP5Config(num_pipelines=4))


@pytest.mark.parametrize("seed", (0, 1))
def test_engines_agree_phantom_latency(seed):
    """Non-zero phantom latency needs slack before the first stateful
    stage; ewma_latency has one stateless stage of headroom."""
    program = compile_program("ewma_latency")
    fields = list(program.packet_fields)

    def trace_factory():
        return line_rate_trace(
            200,
            4,
            lambda r, i: {f: int(r.integers(0, 64)) for f in fields},
            seed=seed,
        )

    _assert_engines_agree(
        program,
        trace_factory,
        MP5Config(num_pipelines=4, phantom_latency=1),
    )


# ---------------------------------------------------------------------------
# Satellite bugfixes
# ---------------------------------------------------------------------------


def test_phantom_loss_counted_separately():
    """In-flight phantom losses land in ``phantoms_lost``, not in the
    FIFO-full drop counter."""
    program = make_sensitivity_program(num_stateful=4, register_size=64)
    stats, _ = run_mp5(
        program,
        sensitivity_trace(100, 4, 4, 64, seed=0),
        MP5Config(num_pipelines=4),
        faults=whole_run_loss(0.9),
    )
    assert stats.phantoms_lost > 0
    assert stats.drops_fifo_full == 0
    assert stats.summary()["phantoms_lost"] == stats.phantoms_lost


def test_switch_run_rejects_reuse():
    program = make_sensitivity_program(num_stateful=2, register_size=16)
    switch = MP5Switch(program, MP5Config(num_pipelines=2))
    switch.run(sensitivity_trace(50, 2, 2, 16, seed=0))
    with pytest.raises(ConfigError):
        switch.run(sensitivity_trace(50, 2, 2, 16, seed=1))
