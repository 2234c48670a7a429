"""Differential testing: vector (batch SoA) engine vs fast and dense.

:class:`~repro.mp5.vector.VectorSwitch` replaces per-tick, per-packet
stepping with an epoch reduction over structure-of-arrays state. Its
admission rule is exactness: for every supported (program, config,
trace) it must produce the *identical* :class:`SwitchStats` and final
register state as the fast engine (itself pinned to the dense
reference by ``test_fastpath_equivalence``). Anything it cannot
reproduce bit-for-bit must raise :class:`VectorUnsupported` at
construction, or be handed to the fast engine by ``build_switch``
before the first packet — never approximate.

This module asserts both halves of that contract: native agreement
over the sensitivity workload, every real application, fuzzed
programs, and the supported config matrix; and the fallback ladder
(one warning per scope naming the reason, for config knobs, program
shapes, faults and access-order recording alike) for everything else —
plus the end-to-end check that ``run_all``
produces byte-identical ``results.json`` under ``engine="vector"``
and ``engine="fast"``. Observability sinks no longer fall back: the
vector engine reconstructs the event stream after the closed-form run
(see ``tests/test_vector_obs.py`` for the parity suite).
"""

import collections
import functools
import itertools
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps import ALL_APPS
from repro.cli import main
from repro.compiler import compile_program
from repro.errors import ConfigError
from repro.faults import DegradationPolicy, FaultEvent, FaultSchedule
from repro.harness.runall import run_all
from repro.mp5 import (
    ENGINES,
    FLOW_ORDER_ARRAY,
    MP5Config,
    VectorSwitch,
    VectorUnsupported,
    build_switch,
    run_mp5,
    run_mp5_reference,
    run_mp5_vector,
)
from repro.mp5.vector import reset_fallback_warnings
from repro.obs import InvariantMonitor, MetricsRegistry, TraceRecorder
from repro.service import ServiceThread, SwitchService
from repro.service.client import ServiceClient
from repro.service.daemon import render_payload, segment_payload
from repro.workloads import line_rate_trace, random_headers
from repro.workloads.synthetic import make_sensitivity_program, sensitivity_trace
from repro.workloads.traceio import packet_to_dict

from tests.test_failure_injection import whole_run_loss
from tests.test_fuzz_equivalence import FIELDS, random_program
from tests.test_integration import HEADER_GENERATORS
from tests.test_trace_input import _assert_unchanged, _snapshot as _trace_snapshot


@pytest.fixture(autouse=True)
def _fresh_warning_scope():
    """The fallback-warning dedup set is process-global (one line per
    run, not per sweep cell); the service tests emit the same messages,
    so each test here starts a fresh scope like a CLI entry would."""
    reset_fallback_warnings()
    yield
    reset_fallback_warnings()


def _vector_native(program, trace, config, max_ticks=None):
    """Run the vector engine with no fallback permitted: an unsupported
    input fails the test instead of silently downgrading coverage."""
    switch = VectorSwitch(program, config)
    stats = switch.run(trace, max_ticks=max_ticks)
    registers = {
        name: values
        for name, values in switch.registers.items()
        if name != FLOW_ORDER_ARRAY
    }
    return stats, registers


def _assert_vector_agrees(
    program, trace_factory, config, max_ticks=None, dense=True
):
    """Vector vs fast (and optionally dense) on identical inputs; the
    trace is regenerated per engine because runs mutate packets."""
    vec_stats, vec_regs = _vector_native(
        program, trace_factory(), config, max_ticks=max_ticks
    )
    fast_stats, fast_regs = run_mp5(
        program, trace_factory(), config, max_ticks=max_ticks
    )
    assert vec_stats == fast_stats
    assert vec_regs == fast_regs
    if dense:
        ref_stats, ref_regs = run_mp5_reference(
            program, trace_factory(), config, max_ticks=max_ticks
        )
        assert vec_stats == ref_stats
        assert vec_regs == ref_regs
    return vec_stats


# ---------------------------------------------------------------------------
# Sensitivity workload (Figure 7 configurations)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", (1, 2, 4))
@pytest.mark.parametrize("seed", (0, 1))
def test_vector_agrees_sensitivity(k, seed):
    program = make_sensitivity_program(num_stateful=4, register_size=64)

    def trace_factory():
        return sensitivity_trace(250, k, 4, 64, seed=seed)

    stats = _assert_vector_agrees(
        program, trace_factory, MP5Config(num_pipelines=k)
    )
    assert stats.egressed == 250


def test_vector_agrees_skewed_pattern():
    program = make_sensitivity_program(num_stateful=4, register_size=64)

    def trace_factory():
        return sensitivity_trace(250, 4, 4, 64, pattern="skewed", seed=0)

    _assert_vector_agrees(program, trace_factory, MP5Config(num_pipelines=4))


# Every config knob the vector engine supports natively; the fallback
# matrix below covers the rest.
NATIVE_CONFIGS = {
    "remap_none": dict(remap_algorithm="none"),
    "remap_optimal": dict(remap_algorithm="optimal"),
    "short_remap_period": dict(remap_period=3),
    "random_initial_shard": dict(initial_shard="random"),
    "flow_order": dict(flow_order_field="f0"),
}


@pytest.mark.parametrize("name", sorted(NATIVE_CONFIGS))
def test_vector_agrees_on_native_config(name):
    program = make_sensitivity_program(num_stateful=4, register_size=64)

    def trace_factory():
        return sensitivity_trace(250, 4, 4, 64, seed=0)

    stats = _assert_vector_agrees(
        program,
        trace_factory,
        MP5Config(num_pipelines=4, **NATIVE_CONFIGS[name]),
    )
    assert stats.egressed == 250


@pytest.mark.parametrize("max_ticks", (0, 1, 37, 120))
def test_vector_agrees_truncated_run(max_ticks):
    """max_ticks cuts mid-flight: packets stuck in the tail must not
    egress, and partial register state must match exactly."""
    program = make_sensitivity_program(num_stateful=4, register_size=64)

    def trace_factory():
        return sensitivity_trace(200, 4, 4, 64, seed=0)

    _assert_vector_agrees(
        program,
        trace_factory,
        MP5Config(num_pipelines=4),
        max_ticks=max_ticks,
    )


def test_vector_agrees_phantom_latency():
    """Delayed phantoms shift every FIFO insert; stateful_firewall has
    slack before its first stateful stage."""
    app = ALL_APPS["stateful_firewall"]
    program = app.compile()

    def trace_factory():
        return app.workload(200, 4, seed=0)

    _assert_vector_agrees(
        program,
        trace_factory,
        MP5Config(num_pipelines=4, phantom_latency=1),
    )


# ---------------------------------------------------------------------------
# Real applications (Figure 8 workloads)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("app_name", sorted(ALL_APPS))
@pytest.mark.parametrize("k", (1, 4))
def test_vector_agrees_real_app(app_name, k):
    app = ALL_APPS[app_name]
    program = app.compile()

    def trace_factory():
        return app.workload(250, k, seed=0)

    _assert_vector_agrees(program, trace_factory, MP5Config(num_pipelines=k))


# ---------------------------------------------------------------------------
# Fuzzed programs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(12))
def test_vector_agrees_fuzzed_program(seed):
    rng = np.random.default_rng(3000 + seed)
    source = random_program(rng)
    program = compile_program(source, name=f"vp{seed}")
    k = int(rng.integers(1, 5))

    def trace_factory():
        return line_rate_trace(
            200,
            k,
            lambda r, i: {f: int(r.integers(0, 32)) for f in FIELDS},
            seed=seed,
        )

    config = MP5Config(num_pipelines=k)
    try:
        _assert_vector_agrees(program, trace_factory, config)
    except VectorUnsupported:
        # Out of the vector envelope: the wrapper must still match the
        # fast engine via its (warned) fallback.
        vec = run_mp5_vector(program, trace_factory(), config)
        fast = run_mp5(program, trace_factory(), config)
        assert vec == fast


# ---------------------------------------------------------------------------
# The fallback ladder: every rung, settled by build_switch
# ---------------------------------------------------------------------------


def _sensitivity_program():
    return make_sensitivity_program(num_stateful=4, register_size=64)


# name -> (program, MP5Config kwargs, build_switch/run keywords, reason);
# a sink keyword holds its factory.
# The four config knobs of config_fallback_reason, the runs that can drop
# packets the per-row sweep does not model (a phantom_channel window —
# the uniform phantom loss that was a knob — and replayed sinks on a
# faulted or bounded-FIFO run), access-order recording, and the three
# bundled programs outside the envelope.
LADDER = {
    "ideal_queues": (
        _sensitivity_program, dict(ideal_queues=True), {}, "ideal_queues"
    ),
    "no_phantoms": (
        _sensitivity_program,
        dict(enable_phantoms=False),
        {},
        "enable_phantoms=False",
    ),
    "ecn": (_sensitivity_program, dict(ecn_threshold=4), {}, "ecn_threshold"),
    "affinity_spray": (
        _sensitivity_program,
        dict(spray_policy="affinity"),
        {},
        "spray_policy='affinity'",
    ),
    "phantom_loss": (
        _sensitivity_program,
        {},
        dict(faults=whole_run_loss(0.2)),
        "phantom_channel faults",
    ),
    "faults_with_monitor": (
        _sensitivity_program,
        {},
        dict(
            faults=FaultSchedule(
                faults=[FaultEvent("pipeline_stall", 20, 40, pipeline=1)]
            ),
            monitor=InvariantMonitor,
        ),
        "observability sinks on a faulted or bounded-FIFO run",
    ),
    "tiny_fifo_with_metrics": (
        _sensitivity_program,
        dict(fifo_capacity=2),
        dict(metrics=functools.partial(MetricsRegistry, window=50)),
        "observability sinks on a faulted or bounded-FIFO run",
    ),
    "record_access_order": (
        _sensitivity_program,
        {},
        dict(record_access_order=True),
        "record_access_order",
    ),
    **{
        name: (
            functools.partial(compile_program, name),
            {},
            {},
            "resolvable access guard",
        )
        for name in ("figure3", "netcache", "rcp")
    },
}


@pytest.mark.parametrize("name", sorted(LADDER))
def test_unsupported_config_falls_back_silently(name, capsys):
    """Every rung of the fallback ladder is settled in ``build_switch``
    before the first packet: it returns a fast switch, prints exactly
    one line naming the reason once per ``reset_fallback_warnings``
    scope, and the run equals ``run_mp5``'s. (The name predates the
    warning and the non-config rungs.)"""
    make_program, cfg_kw, run_kw, reason = LADDER[name]
    program = make_program()
    config = MP5Config(num_pipelines=4, **cfg_kw)
    line = f"vector engine: {reason}; falling back to the fast engine\n"

    def trace():
        return line_rate_trace(200, 4, random_headers(program), seed=0)

    def fresh():
        # A registry or monitor observes one run: one per run.
        return {
            key: value() if key in ("metrics", "monitor") else value
            for key, value in run_kw.items()
        }

    fast = run_mp5(program, trace(), config, **fresh())
    record = run_kw.get("record_access_order", False)
    for _ in range(2):
        switch = build_switch("vector", program, config, **fresh())
        assert switch.engine == "fast"
        stats = switch.run(trace(), record_access_order=record)
        assert (stats, switch.public_registers()) == fast
    assert capsys.readouterr().err == line
    reset_fallback_warnings()
    assert run_mp5_vector(program, trace(), config, **fresh()) == fast
    assert capsys.readouterr().err == line


# ---------------------------------------------------------------------------
# Runs that can drop packets: the per-row sweep (repro.mp5.rowsweep)
# ---------------------------------------------------------------------------


def _three_engines(
    program, trace_factory, config, faults=None, max_ticks=None
):
    """Run vector, fast and dense under one schedule; the vector run must
    not fall back. Returns the vector switch and its (stats, registers)."""
    results = []
    for engine in ("vector", "fast", "dense"):
        switch = build_switch(engine, program, config, faults=faults)
        assert switch.engine == engine
        stats = switch.run(trace_factory(), max_ticks=max_ticks)
        results.append((switch, (stats, switch.public_registers())))
    (vswitch, vec), (_f, fast), (_d, dense) = results
    assert vec == fast
    assert vec == dense
    # Dict equality ignores order; the CLI prints reasons as first met.
    assert list(vec[0].drops_by_reason) == list(fast[0].drops_by_reason)
    rendered = [render_payload(segment_payload(*r)) for _s, r in results]
    assert rendered[0] == rendered[1] == rendered[2]
    return vswitch, vec


#: The bundled schedules without a phantom_channel window.
VECTOR_SCHEDULES = ("stall", "slowdown", "crossbar", "fifo_shrink")


@pytest.mark.parametrize("name", VECTOR_SCHEDULES)
@pytest.mark.parametrize("max_ticks", (None, 45))
def test_bundled_schedules_three_engine_identity(name, max_ticks, capsys):
    """Every bundled schedule without a phantom_channel window runs on
    the vector engine, silently, with stats and registers equal to both
    scalar engines' and a DAG signature that repeats run to run and
    across feed chunkings."""
    program = make_sensitivity_program(num_stateful=4, register_size=16)
    config = MP5Config(num_pipelines=4, remap_period=20)

    def trace():
        return sensitivity_trace(400, 4, 4, 16, pattern="skewed", seed=1)

    def schedule():
        return FaultSchedule.load(f"examples/faults/{name}.json")

    switch, (stats, _r) = _three_engines(
        program, trace, config, schedule(), max_ticks=max_ticks
    )
    assert capsys.readouterr().err == ""
    signature = switch._last_schedule.dag_signature()
    again = build_switch("vector", program, config, faults=schedule())
    again.run(trace(), max_ticks=max_ticks)
    assert again._last_schedule.dag_signature() == signature
    streamed, _stats = _stream_vector(
        program, trace(), config, [5, 17, 40], max_ticks=max_ticks,
        faults=schedule(), max_steps=2,
    )
    assert streamed._last_schedule.dag_signature() == signature
    if max_ticks is None and name in ("crossbar", "fifo_shrink"):
        assert stats.dropped > 0
    if name in ("stall", "slowdown", "crossbar"):
        assert stats.emergency_remaps > 0


@pytest.mark.parametrize("capacity", (1, 2, 3))
@pytest.mark.parametrize("remap", ("heuristic", "optimal"))
def test_tiny_fifo_three_engine_identity(capacity, remap):
    """A bounded ``fifo_capacity`` runs on the per-row sweep with no
    schedule: phantoms that find their ring buffer full drop their
    packet at injection, on every engine alike."""
    program = make_sensitivity_program(num_stateful=4, register_size=64)
    config = MP5Config(
        num_pipelines=4, fifo_capacity=capacity, remap_algorithm=remap
    )

    def trace():
        return sensitivity_trace(400, 4, 4, 64, pattern="skewed", seed=0)

    _switch, (stats, _r) = _three_engines(program, trace, config)
    assert stats.drops_by_reason.get("phantom_fifo_full", 0) > 0


def test_flow_order_under_faults_three_engine_identity():
    """The flow-order plan rides the sweep like any other (its in-flight
    counters are never released, as in the scalar engines)."""
    from repro.faults import generate_schedule

    program = make_sensitivity_program(num_stateful=4, register_size=64)
    config = MP5Config(
        num_pipelines=4, fifo_capacity=2, remap_period=7,
        flow_order_field="idx0", flow_order_size=32,
    )
    schedule = generate_schedule(
        5, kinds=["pipeline_stall", "crossbar_fail", "fifo_shrink"],
        num_pipelines=4, horizon=200, events=4,
    )

    def trace():
        return sensitivity_trace(400, 4, 4, 64, pattern="skewed", seed=5)

    _switch, (stats, _r) = _three_engines(program, trace, config, schedule)
    assert stats.dropped > 0 and stats.emergency_remaps > 0


@pytest.mark.parametrize("capacity", (1, 2))
def test_delayed_phantoms_three_engine_identity(capacity):
    """With ``phantom_latency`` a phantom that finds its ring buffer full
    is lost on delivery, not at injection: its packet keeps its slot,
    runs, is steered and drops at that stage for want of a phantom
    (``no_phantom``), while its other phantoms are consumed then."""
    from repro.faults import generate_schedule

    program = ALL_APPS["stateful_firewall"].compile()
    config = MP5Config(
        num_pipelines=4, fifo_capacity=capacity, phantom_latency=1,
        remap_period=25,
    )
    schedule = generate_schedule(
        3, kinds=["pipeline_stall", "crossbar_fail", "fifo_shrink"],
        num_pipelines=4, horizon=150, events=5,
    )

    def trace():
        return line_rate_trace(400, 4, random_headers(program), seed=capacity)

    _switch, (stats, _r) = _three_engines(program, trace, config, schedule)
    assert stats.drops_no_phantom > 0
    assert stats.drops_by_reason.get("phantom_fifo_full", 0) == 0


# (stateful stages, register size, k, fifo_capacity, remap algorithm,
# index pattern, seed, fault kinds, windows): two draws on which a
# consumed phantom's slot leaving its ring buffer one tick early (at the
# pop of the slot ahead of it, not at the next pop scan) changes which
# packets drop at injection.
PURGE_CASES = {
    "stalls_optimal": (
        2, 4, 4, 8, "optimal", "skewed", 75, ["pipeline_stall"], 3
    ),
    "mixed_heuristic": (
        4, 4, 3, 3, "heuristic", "uniform", 187,
        ["pipeline_stall", "crossbar_fail", "fifo_shrink"], 6,
    ),
}


@pytest.mark.parametrize("case", sorted(PURGE_CASES))
def test_consumed_slots_wait_for_a_pop_scan(case):
    """A dropped packet's phantom stays in its ring buffer — and counts
    against the capacity — until a pop scan finds it at the head: one
    tick after the pop of the slot ahead of it at the earliest."""
    from repro.faults import generate_schedule

    (stateful, size, k, capacity, remap, pattern, seed, kinds,
     events) = PURGE_CASES[case]
    program = make_sensitivity_program(
        num_stateful=stateful, register_size=size
    )
    config = MP5Config(
        num_pipelines=k, fifo_capacity=capacity, remap_algorithm=remap
    )
    schedule = generate_schedule(
        seed, kinds=kinds, num_pipelines=k, horizon=400, events=events
    )

    def trace():
        return sensitivity_trace(
            600, k, stateful, size, pattern=pattern, seed=seed
        )

    _switch, (stats, _r) = _three_engines(program, trace, config, schedule)
    assert stats.drops_fifo_full > 0


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    schedule_seed=st.integers(0, 10_000),
    trace_seed=st.integers(0, 10_000),
    k=st.integers(1, 4),
    capacity=st.sampled_from([None, None, 2, 4]),
    app=st.sampled_from(["flowlet", "heavy_hitter", "conga", "sequencer"]),
)
def test_generated_schedules_vector_equals_fast(
    schedule_seed, trace_seed, k, capacity, app
):
    """Property: under any ``generate_schedule`` draw of stalls,
    crossbar failures and FIFO shrinks, the vector engine's results
    equal the fast engine's."""
    from repro.faults import generate_schedule

    program = compile_program(app)
    config = MP5Config(
        num_pipelines=k, fifo_capacity=capacity, remap_period=25
    )
    schedule = generate_schedule(
        schedule_seed,
        kinds=["pipeline_stall", "crossbar_fail", "fifo_shrink"],
        num_pipelines=k,
        horizon=150,
        events=4,
    )

    def trace():
        return line_rate_trace(
            250, k, HEADER_GENERATORS[app], seed=trace_seed, utilization=0.8
        )

    switch = build_switch("vector", program, config, faults=schedule)
    assert switch.engine == "vector"
    vec = (switch.run(trace()), switch.public_registers())
    assert vec == run_mp5(program, trace(), config, faults=schedule)


@functools.lru_cache(maxsize=None)
def _late_program(stateful: int, size: int):
    """The sensitivity counters, each adding a header field computed in
    three stateless stages first: the first plan stage is 4, so phantoms
    may be up to 3 ticks late."""
    fields = "".join(f"int idx{i}; " for i in range(stateful))
    regs = "".join(f"int reg{i}[{size}] = {{0}};\n" for i in range(stateful))
    body = "".join(
        f"    reg{i}[p.idx{i}] = reg{i}[p.idx{i}] + p.c;\n"
        for i in range(stateful)
    )
    return compile_program(
        f"struct Packet {{ {fields}int a; int b; int c; }};\n{regs}"
        "void func(struct Packet p) {\n    p.a = p.idx0 + 1;\n"
        f"    p.b = p.a * 3;\n    p.c = p.b - 2;\n{body}}}\n",
        name=f"late_m{stateful}_r{size}",
    )


@st.composite
def row_sweep_runs(draw):
    """A run on the per-row sweep: a fault schedule of stalls (full and
    slowdowns), crossbar failures and FIFO shrinks opening in the first
    60 ticks of 160 skewed packets on small arrays, degradation on or
    off (so emergency remaps occur), every knob the sweep reads, and a
    feed chunking."""
    k = draw(st.integers(1, 4))
    pipe = st.integers(0, k - 1)
    start = st.integers(0, 60)
    duration = st.integers(4, 60)
    degrade = st.sampled_from([True, True, False])
    stall = st.builds(
        lambda *a: FaultEvent("pipeline_stall", *a[:3], service_rate=a[3],
                              degrade=a[4]),
        start, duration, pipe, st.sampled_from([0.0, 0.0, 0.25, 0.5]),
        degrade,
    )
    crossbar = st.builds(
        lambda *a: FaultEvent("crossbar_fail", *a[:3], degrade=a[3]),
        start, duration, pipe, degrade,
    )
    shrink = st.builds(
        lambda *a: FaultEvent("fifo_shrink", *a[:2], capacity=a[2]),
        start, duration, st.integers(1, 3),
    )
    faults = draw(st.lists(st.one_of(stall, crossbar, shrink), max_size=4))
    policy = DegradationPolicy(
        enabled=draw(degrade),
        drain_ticks=draw(st.integers(0, 4)),
        retry_backoff=draw(st.integers(1, 12)),
        max_retries=draw(st.integers(1, 4)),
    )
    capacity = draw(st.sampled_from([None, 1, 2, 4]))
    if not faults and capacity is None:
        capacity = 1  # still a run that can drop
    config = MP5Config(
        num_pipelines=k,
        fifo_capacity=capacity,
        phantom_latency=draw(st.integers(0, 2)),
        remap_algorithm=draw(st.sampled_from(["heuristic", "optimal"])),
        remap_period=draw(st.integers(3, 25)),
        flow_order_field=draw(st.sampled_from([None, "idx0"])),
        flow_order_size=16,
    )
    chunks = draw(st.lists(st.integers(1, 90), min_size=1, max_size=4))
    return dict(
        k=k,
        schedule=FaultSchedule(faults=faults, degradation=policy),
        config=config,
        stateful=draw(st.integers(1, 3)),
        size=draw(st.sampled_from([4, 8, 16])),
        seed=draw(st.integers(0, 10_000)),
        chunks=chunks,
        budget=draw(st.sampled_from([None, 1, 3])),
    )


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=row_sweep_runs())
def test_row_sweep_matches_fast_at_any_chunking(case):
    """Property: on a run that can drop packets the vector engine's
    payload bytes and drop counters (reasons in first-met order) equal
    the fast engine's, and a chunked, budget-pumped run has the one-feed
    run's DAG signature."""
    k, config, schedule = case["k"], case["config"], case["schedule"]
    program = _late_program(case["stateful"], case["size"])

    def trace():
        return sensitivity_trace(
            160, k, case["stateful"], case["size"], pattern="skewed",
            seed=case["seed"],
        )

    runs = []
    for engine in ("vector", "fast"):
        switch = build_switch(engine, program, config, faults=schedule)
        assert switch.engine == engine
        stats = switch.run(trace())
        runs.append((switch, stats, switch.public_registers()))
    (vswitch, vstats, vregs), (_f, fstats, fregs) = runs
    assert render_payload(segment_payload(vstats, vregs)) == render_payload(
        segment_payload(fstats, fregs)
    )
    drops = ("dropped", "drops_fifo_full", "drops_crossbar",
             "drops_no_phantom", "emergency_remaps", "emergency_remap_moves")
    for name in drops:
        assert getattr(vstats, name) == getattr(fstats, name), name
    assert list(vstats.drops_by_reason.items()) == list(
        fstats.drops_by_reason.items()
    )
    streamed, _stats = _stream_vector(
        program, trace(), config, case["chunks"], faults=schedule,
        max_steps=case["budget"],
    )
    assert streamed._last_schedule.dag_signature() == (
        vswitch._last_schedule.dag_signature()
    )


@pytest.mark.parametrize("flow_order", (None, "idx0"))
@pytest.mark.parametrize("algorithm", ("heuristic", "optimal"))
def test_row_sweep_emergency_remaps_read_the_fast_engines_counters(
    algorithm, flow_order
):
    """The per-row sweep keeps its counters in Python and publishes them
    before each fault-calendar event: every emergency remap must read
    the access counters, in-flight counters and maps the fast engine's
    reads at that tick."""
    from repro.faults import generate_schedule

    program = make_sensitivity_program(num_stateful=3, register_size=32)
    config = MP5Config(
        num_pipelines=4, fifo_capacity=3, remap_period=15,
        remap_algorithm=algorithm, flow_order_field=flow_order,
        flow_order_size=16,
    )
    schedule = generate_schedule(
        11, kinds=["pipeline_stall", "crossbar_fail", "fifo_shrink"],
        num_pipelines=4, horizon=300, events=6,
    )
    seen = {}
    for engine in ("vector", "fast"):
        switch = build_switch(engine, program, config, faults=schedule)
        sharder = switch.sharder
        emergency_remap = sharder.emergency_remap
        reads = seen[engine] = []

        def spy(failed, healthy, sharder=sharder, call=emergency_remap,
                reads=reads):
            reads.append(
                [
                    (
                        name,
                        state.access_counts.tolist(),
                        state.in_flight.tolist(),
                        state.index_to_pipeline.tolist(),
                    )
                    for name, state in sharder.arrays.items()
                ]
            )
            return call(failed, healthy)

        sharder.emergency_remap = spy
        switch.run(sensitivity_trace(600, 4, 3, 32, "skewed", seed=4))
    assert len(seen["vector"]) > 2
    assert seen["vector"] == seen["fast"]


@pytest.mark.parametrize("seed", range(4))
def test_faulted_streaming_matches_run(seed):
    """Under a schedule, feeding in random chunks with watermark-gated
    pumps of random budgets equals ``run()``: stats, registers and the
    DAG (the fault calendar's events are cuts the watermark closes like
    any other)."""
    rng = np.random.default_rng(seed)
    program = compile_program("flowlet")
    config = MP5Config(num_pipelines=4, remap_period=int(rng.integers(5, 40)))
    schedule = FaultSchedule.load(
        f"examples/faults/{VECTOR_SCHEDULES[seed]}.json"
    )

    def trace():
        return line_rate_trace(
            500, 4, HEADER_GENERATORS["flowlet"], seed=seed, utilization=0.9
        )

    batch = build_switch("vector", program, config, faults=schedule)
    ref = _snapshot(batch, batch.run(trace()))
    chunks = [int(c) for c in rng.integers(1, 80, size=8)]
    budget = [None, 1, 3][seed % 3]
    switch, stats = _stream_vector(
        program, trace(), config, chunks, faults=schedule, max_steps=budget
    )
    assert _snapshot(switch, stats) == ref
    assert switch.stream_stats()["buffered"] == 0


def test_vector_switch_refuses_what_the_ladder_settles():
    """Past construction a ``VectorSwitch`` never falls back: a
    ``phantom_channel`` schedule, sinks on a faulted run or access-order
    recording is misuse."""
    schedule = FaultSchedule.load("examples/faults/phantom_loss.json")
    switch = VectorSwitch(_sensitivity_program(), MP5Config(num_pipelines=4))
    switch.attach_faults(FaultSchedule())  # empty: no schedule at all
    with pytest.raises(ConfigError, match="phantom_channel faults"):
        switch.attach_faults(schedule)
    with pytest.raises(ConfigError, match="access order"):
        switch.start(record_access_order=True)
    switch = VectorSwitch(_sensitivity_program(), MP5Config(num_pipelines=4))
    switch.attach_faults(FaultSchedule.load("examples/faults/stall.json"))
    with pytest.raises(ConfigError, match="observability sinks"):
        switch.attach_observability(monitor=InvariantMonitor())


def test_empty_fault_schedule_stays_on_vector(tmp_path, capsys):
    """An empty schedule is no schedule, on every path: the runner, the
    CLI and the daemon run the vector engine without a fallback line,
    and the results equal the unscheduled run byte for byte."""
    program = compile_program("heavy_hitter")
    config = MP5Config(num_pipelines=4, seed=5)
    trace = line_rate_trace(300, 4, random_headers(program), seed=3)

    def rendered(run):
        return render_payload(segment_payload(*run))

    want = rendered(ENGINES["vector"](program, trace, config))
    got = ENGINES["vector"](program, trace, config, faults=FaultSchedule())
    assert rendered(got) == want
    assert capsys.readouterr().err == ""

    path = tmp_path / "empty.json"
    FaultSchedule().save(path)
    assert main(
        ["run", "sequencer", "--packets", "200", "--engine", "vector",
         "--faults", str(path)]
    ) == 0
    assert "falling back" not in capsys.readouterr().err

    service = SwitchService(
        program="heavy_hitter",
        engine="vector",
        config=config,
        faults=FaultSchedule(),
    )
    with ServiceThread(service) as thread:
        client = ServiceClient(*thread.address, timeout=30)
        client.ingest([packet_to_dict(p) for p in trace])
        record = client.drain()["closed_segment"]
        served = client.segment_results(0)
        client.shutdown()
    assert record["engine"] == "vector"
    assert served == want
    assert "falling back" not in capsys.readouterr().err


def test_observability_runs_on_vector_without_fallback(capsys):
    """Observability sinks no longer trigger fallback: the monitor
    attaches to the vector engine's reconstructed stream, runs clean on
    a fault-free workload, and never perturbs the results."""
    program = make_sensitivity_program(num_stateful=4, register_size=64)
    config = MP5Config(num_pipelines=4)
    monitor = InvariantMonitor()
    vec = run_mp5_vector(
        program,
        sensitivity_trace(200, 4, 4, 64, seed=0),
        config,
        monitor=monitor,
    )
    assert capsys.readouterr().err == ""  # no fallback warning
    assert monitor.health_report().verdict == "ok"  # sink really attached
    assert len(monitor.alerts) == 0
    fast = run_mp5(
        program, sensitivity_trace(200, 4, 4, 64, seed=0), config
    )
    assert vec == fast


def test_faults_fall_back_with_warning(capsys):
    program = make_sensitivity_program(num_stateful=4, register_size=64)
    config = MP5Config(num_pipelines=4)
    schedule = FaultSchedule.load("examples/faults/phantom_loss.json")
    vec = run_mp5_vector(
        program,
        sensitivity_trace(200, 4, 4, 64, seed=0),
        config,
        faults=schedule,
    )
    assert "phantom_channel faults" in capsys.readouterr().err
    fast = run_mp5(
        program,
        sensitivity_trace(200, 4, 4, 64, seed=0),
        config,
        faults=FaultSchedule.load("examples/faults/phantom_loss.json"),
    )
    assert vec == fast


def test_cli_vector_monitor_no_fallback(capsys):
    """``--engine vector --monitor`` runs natively on the vector engine
    (no fallback warning) and prints the health verdict."""
    assert main(
        ["run", "heavy_hitter", "--packets", "300", "--engine", "vector",
         "--monitor"]
    ) == 0
    captured = capsys.readouterr()
    assert "falling back" not in captured.err
    assert "throughput" in captured.out
    assert "health: ok" in captured.out


def test_cli_vector_faults_fallback_warns_once(capsys):
    """``phantom_channel`` windows remain outside the vector envelope:
    the CLI run warns exactly once and still prints the statistics
    block."""
    assert main(
        ["run", "heavy_hitter", "--packets", "300", "--engine", "vector",
         "--faults", "examples/faults/phantom_loss.json"]
    ) == 0
    captured = capsys.readouterr()
    assert captured.err.count("phantom_channel faults") == 1
    assert captured.err.count("falling back to the fast engine") == 1
    assert "throughput" in captured.out


def test_cli_vector_native_no_warning(capsys):
    assert main(
        ["run", "heavy_hitter", "--packets", "300", "--engine", "vector"]
    ) == 0
    captured = capsys.readouterr()
    assert "falling back" not in captured.err
    assert "throughput" in captured.out


# ---------------------------------------------------------------------------
# Streaming: start/feed/pump/finish vs run() (the PR 8 contract on the
# vector engine — byte-identical at any chunking, memory bounded by the
# largest epoch)
# ---------------------------------------------------------------------------


def _stream_vector(
    program,
    trace,
    config,
    chunk,
    monitor=None,
    metrics=None,
    profiler=None,
    max_ticks=None,
    max_steps=None,
    faults=None,
):
    """Feed ``trace`` in ``chunk``-sized batches (an int, or a list of
    sizes cycled through) with a watermark-gated pump after every feed —
    the exact loop the service daemon runs. ``max_steps`` is the pump
    budget: every Phase B sweep, the drain's included, then covers at
    most that many epochs (1 is epoch-by-epoch service)."""
    switch = VectorSwitch(program, config)
    switch.attach_faults(faults)
    switch.attach_observability(
        metrics=metrics, monitor=monitor, profiler=profiler
    )
    switch.start(max_ticks=max_ticks)

    def pump(until_tick):
        # A pump that spent its whole budget may have left closed epochs.
        while switch.pump(max_steps, until_tick=until_tick) == max_steps:
            pass

    sizes = itertools.cycle([chunk] if isinstance(chunk, int) else chunk)
    i = 0
    while i < len(trace):
        n = next(sizes)
        switch.feed(trace[i : i + n])
        i += n
        pump(switch.ingest_watermark)
    if max_steps is not None:
        pump(None)  # drain in budgeted sweeps; finish() finds none left
    stats = switch.finish()
    return switch, stats


def _snapshot(switch, stats):
    registers = {
        name: values
        for name, values in switch.registers.items()
        if name != FLOW_ORDER_ARRAY
    }
    return stats, registers, switch._last_schedule.dag_signature()


@pytest.mark.parametrize("chunk", (1, 7, 64, 1000))
def test_vector_streaming_matches_batch(chunk):
    """Streamed (feed + gated pump per chunk) equals the one-shot batch
    run bit-for-bit: stats, registers, and the epoch DAG itself."""
    program = make_sensitivity_program(num_stateful=4, register_size=64)
    config = MP5Config(num_pipelines=4, remap_period=3)

    batch = VectorSwitch(program, config)
    ref = _snapshot(batch, batch.run(sensitivity_trace(600, 4, 4, 64, seed=0)))

    switch, stats = _stream_vector(
        program, sensitivity_trace(600, 4, 4, 64, seed=0), config, chunk
    )
    assert switch.stream_stats()["epochs_serviced"] > 0
    assert _snapshot(switch, stats) == ref


def test_vector_streaming_buffer_bounded_by_epoch_not_segment():
    """Acceptance: peak buffered-packet count tracks the largest epoch,
    not the segment. On a stable (underloaded) workload, quadrupling
    the trace must leave the peak essentially flat — what grows with
    trace length is throughput, not memory. (An *overloaded* workload
    accumulates genuinely in-flight packets inside the switch model
    itself; that queueing is the model's, not the streamer's.)"""
    program = make_sensitivity_program(num_stateful=4, register_size=64)
    config = MP5Config(num_pipelines=4, remap_period=3)

    def trace(n):
        return line_rate_trace(
            n,
            4,
            lambda rng, _i: {
                f"idx{j}": int(rng.integers(0, 64)) for j in range(4)
            },
            seed=0,
            utilization=0.7,
        )

    peaks = {}
    for n in (1500, 6000):
        switch, stats = _stream_vector(program, trace(n), config, chunk=32)
        assert stats.egressed == n
        gauges = switch.stream_stats()
        assert gauges["buffered"] == 0  # drained dry
        peaks[n] = gauges["peak_buffered"]
    assert peaks[6000] < 6000 / 10, peaks
    # O(largest epoch): the peak must not scale with segment length.
    assert peaks[6000] <= peaks[1500] * 1.25 + 32, peaks


def test_vector_streaming_observability_matches_batch():
    """Monitor + metrics attached, streamed vs batch: the reconstructed
    event stream (alerts, health, window series) is identical because
    the epoch DAG is."""
    from repro.obs import MetricsRegistry

    program = make_sensitivity_program(num_stateful=4, register_size=64)
    config = MP5Config(num_pipelines=4, remap_period=3)

    bat_mon, bat_met = InvariantMonitor(), MetricsRegistry(window=25)
    batch = VectorSwitch(program, config)
    batch.attach_observability(metrics=bat_met, monitor=bat_mon)
    batch.start()
    batch.feed(sensitivity_trace(600, 4, 4, 64, seed=0))
    bat_stats = batch.finish()

    str_mon, str_met = InvariantMonitor(), MetricsRegistry(window=25)
    switch, stats = _stream_vector(
        program,
        sensitivity_trace(600, 4, 4, 64, seed=0),
        config,
        chunk=48,
        monitor=str_mon,
        metrics=str_met,
    )
    assert stats == bat_stats
    assert str_mon.alerts.to_dicts() == bat_mon.alerts.to_dicts()
    assert (
        str_mon.health_report().to_dict() == bat_mon.health_report().to_dict()
    )
    assert str_met.since(-1) == bat_met.since(-1)


@pytest.mark.parametrize(
    "config,max_ticks,monitored",
    [
        (MP5Config(num_pipelines=4), None, False),
        (MP5Config(num_pipelines=4, remap_algorithm="none"), None, False),
        (MP5Config(num_pipelines=4), 637, False),
        (MP5Config(num_pipelines=4), None, True),
    ],
    ids=["default_remap", "remap_none", "max_ticks_mid_epoch", "monitored"],
)
def test_vector_run_is_a_streamed_run_that_drains(
    config, max_ticks, monitored
):
    """One Phase B: ``run(trace)``, ``start/feed(all)/finish`` and the
    daemon's chunked feed + gated pump are the same execution — equal
    stats, registers, DAG, sink output, and the same kernel tier and
    call count per stage (a serial plan, two conservative wave plans;
    sinks attached force the wasted-mask paths)."""
    from repro.obs import MetricsRegistry, PhaseProfiler

    program = compile_program("stateful_predicate")

    def trace():
        return line_rate_trace(
            1200,
            4,
            lambda rng, _i: {"key": int(rng.integers(0, 50)), "out": 0},
            seed=0,
        )

    def drive(how):
        sinks = dict(profiler=PhaseProfiler())
        if monitored:
            sinks.update(
                monitor=InvariantMonitor(), metrics=MetricsRegistry(window=25)
            )
        if how == "chunked":
            switch, stats = _stream_vector(
                program, trace(), config, 48, max_ticks=max_ticks, **sinks
            )
        else:
            switch = VectorSwitch(program, config)
            switch.attach_observability(**sinks)
            if how == "run":
                stats = switch.run(trace(), max_ticks=max_ticks)
            else:
                switch.start(max_ticks=max_ticks)
                switch.feed(trace())
                stats = switch.finish()
        assert switch.stream_stats()["epochs_serviced"] > 0
        kernels = {
            stage: (k["tier"], k["calls"])
            for stage, k in sinks["profiler"].kernels.items()
        }
        observed = None
        if monitored:
            observed = (
                sinks["monitor"].alerts.to_dicts(),
                sinks["monitor"].health_report().to_dict(),
                sinks["metrics"].since(-1),
            )
        return _snapshot(switch, stats), kernels, observed

    ref = drive("run")
    assert len(ref[1]) == 3  # every plan's stage recorded a tier
    assert ref[0][0].wasted_slots > 0
    assert drive("feed_all") == ref
    assert drive("chunked") == ref


def _predicate_trace():
    return line_rate_trace(
        900,
        4,
        lambda rng, _i: {"key": int(rng.integers(0, 50)), "out": 0},
        seed=0,
    )


def _sensitivity_600():
    return sensitivity_trace(600, 4, 4, 64, seed=0)


# program factory, trace factory, MP5Config kwargs, max_ticks. Short
# remap periods give every run tens of epochs, so a budget of 1 or 3
# really splits the sweeps.
GRANULARITY_CASES = {
    # flowlet's two wave plans keep last-writer state (last_time,
    # saved_hop): the final registers depend on per-slot service order,
    # which a commutative counter would hide. Both scan.
    "all_wave": (
        lambda: compile_program("flowlet"),
        lambda: line_rate_trace(600, 4, HEADER_GENERATORS["flowlet"], seed=3),
        dict(remap_period=7),
        None,
    ),
    # dctcp_alpha divides its register, so its wave plan keeps the NumPy
    # wave decomposition (the fused kernel where Numba jits it). Eight
    # flows and large marks push alpha past 16, where the truncating
    # division makes per-slot order visible.
    "wave_decomposition": (
        lambda: compile_program("dctcp_alpha"),
        lambda: line_rate_trace(
            600,
            4,
            lambda r, _i: {
                "flow": int(r.integers(0, 8)),
                "ecn": int(r.integers(0, 64)),
                "alpha_out": 0,
            },
            seed=5,
        ),
        dict(remap_period=7),
        None,
    ),
    # conga's co-staged arrays keep the fused per-row kernel.
    "all_serial": (
        lambda: compile_program("conga"),
        lambda: line_rate_trace(600, 4, HEADER_GENERATORS["conga"], seed=4),
        dict(remap_period=7),
        None,
    ),
    "two_serial_plans": (
        lambda: compile_program("avq"),
        lambda: line_rate_trace(600, 4, HEADER_GENERATORS["avq"], seed=2),
        dict(remap_period=7),
        None,
    ),
    "mixed": (
        lambda: compile_program("stateful_predicate"),
        _predicate_trace,
        dict(remap_period=11),
        None,
    ),
    "flow_order": (
        lambda: make_sensitivity_program(num_stateful=4, register_size=64),
        _sensitivity_600,
        dict(remap_period=7, flow_order_field="idx0", flow_order_size=32),
        None,
    ),
    "remap_none": (
        lambda: compile_program("stateful_predicate"),
        _predicate_trace,
        dict(remap_algorithm="none"),
        None,
    ),
    "max_ticks_mid_epoch": (
        lambda: compile_program("stateful_predicate"),
        _predicate_trace,
        dict(remap_period=11),
        137,
    ),
    # An 8-pipeline line-rate trace queues at every plan, so inserts
    # reach later plans out of id order; at k=8 the cut falls while
    # some groups' heads have not arrived and data waits behind them
    # (test_blocked_head_case_cuts_behind_a_blocked_head).
    "max_ticks_blocked_head": (
        lambda: make_sensitivity_program(num_stateful=4, register_size=64),
        lambda: sensitivity_trace(600, 8, 4, 64, seed=0),
        dict(remap_period=7),
        80,
    ),
}

#: Pipeline counts every granularity case runs at.
GRANULARITY_PIPELINES = (1, 2, 4, 8)


def _granularity_sinks(monitored):
    from repro.obs import MetricsRegistry, PhaseProfiler

    sinks = dict(profiler=PhaseProfiler())
    if monitored:
        sinks.update(
            monitor=InvariantMonitor(), metrics=MetricsRegistry(window=25)
        )
    return sinks


def _granularity_observed(switch, stats, sinks):
    """Everything a run exposes that Phase B's sweep width could touch."""
    n = stats.offered
    observed = [
        _snapshot(switch, stats),
        {
            stage: (k["tier"], k["calls"])
            for stage, k in sinks["profiler"].kernels.items()
        },
        switch.stream_stats()["epochs_serviced"],
    ]
    if "monitor" in sinks:
        observed += [
            sinks["monitor"].alerts.to_dicts(),
            sinks["monitor"].health_report().to_dict(),
            sinks["metrics"].since(-1),
            [
                None if m is None else np.flatnonzero(m[:n]).tolist()
                for m in switch._wmasks
            ],
        ]
    return observed


@functools.lru_cache(maxsize=None)
def _granularity_reference(case, k, monitored):
    make_program, trace, cfg_kw, max_ticks = GRANULARITY_CASES[case]
    sinks = _granularity_sinks(monitored)
    switch = VectorSwitch(make_program(), MP5Config(num_pipelines=k, **cfg_kw))
    switch.attach_observability(**sinks)
    stats = switch.run(trace(), max_ticks=max_ticks)
    return _granularity_observed(switch, stats, sinks)


@pytest.mark.parametrize("case", sorted(GRANULARITY_CASES))
@settings(
    max_examples=2,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
@given(sizes=st.lists(st.integers(1, 400), min_size=1, max_size=5))
def test_sweep_granularity_is_unobservable(case, sizes):
    """How many epochs one Phase B sweep covers is set by the pump call
    (``max_steps``, the watermark, the feed chunking) and shows nowhere:
    registers, stats, DAG, the profiler's ``(tier, calls)``, the epochs
    serviced and — with a monitor and metrics attached — alerts, health,
    window series and wasted-slot masks equal ``run()``'s one sweep.
    ``max_steps=1`` is epoch-by-epoch service, the order the engine had
    before sweeps were merged, so any inexact merge fails here. Phase A
    resolves a row's timeline in the cut that injects it and commits
    its pops cut by cut, so the feed chunking must not show there
    either, at any pipeline count, with sinks attached or not."""
    make_program, trace, cfg_kw, max_ticks = GRANULARITY_CASES[case]
    for k, monitored in itertools.product(
        GRANULARITY_PIPELINES, (False, True)
    ):
        ref = _granularity_reference(case, k, monitored)
        if case != "remap_none" and max_ticks is None:
            assert ref[2] >= 20  # enough epochs for the budgets to differ
        for max_steps in (1, 3, None):
            sinks = _granularity_sinks(monitored)
            switch, stats = _stream_vector(
                make_program(),
                trace(),
                MP5Config(num_pipelines=k, **cfg_kw),
                sizes,
                max_ticks=max_ticks,
                max_steps=max_steps,
                **sinks,
            )
            observed = _granularity_observed(switch, stats, sinks)
            assert observed == ref, (k, max_steps)


def _blocked_heads(schedule, cut):
    """FIFO groups whose first member still queued at ``cut`` has not
    arrived there while a later member has: head-of-line blocking."""
    blocked = 0
    for pi in range(len(schedule.pop_tick)):
        ins, pop = schedule.ins_tick[pi], schedule.pop_tick[pi]
        for members in schedule.lanes[pi]:
            waiting = members[pop[members] < 0]
            if waiting.size < 2:
                continue
            behind = ins[waiting[1:]]
            if not 0 <= ins[waiting[0]] <= cut and (
                (behind >= 0) & (behind <= cut)
            ).any():
                blocked += 1
    return blocked


def test_blocked_head_case_cuts_behind_a_blocked_head():
    """The case is what its name says at k=8: when ``max_ticks`` cuts
    the run, data waits in some group behind a head that never arrived,
    so those rows pop past the limit only because the chain holds
    them."""
    make_program, trace, cfg_kw, max_ticks = GRANULARITY_CASES[
        "max_ticks_blocked_head"
    ]
    switch = VectorSwitch(make_program(), MP5Config(num_pipelines=8, **cfg_kw))
    stats = switch.run(trace(), max_ticks=max_ticks)
    assert stats.ticks == max_ticks and stats.egressed < stats.offered
    assert _blocked_heads(switch._last_schedule, max_ticks - 1) > 0


#: Cut runs for the stored-tick invariant: (case, max_ticks), where None
#: takes the case's own cut.
CUT_RUNS = {
    "zero": ("max_ticks_mid_epoch", 0),
    "mid_epoch": ("max_ticks_mid_epoch", None),
    "blocked_head": ("max_ticks_blocked_head", None),
}


@pytest.mark.parametrize("k", (1, 4, 8))
@pytest.mark.parametrize("cut", sorted(CUT_RUNS))
def test_stored_ticks_are_the_executed_events(cut, k):
    """In every stored tick column -1 means "never executes": per plan
    stage, the fast engine's live trace of the same cut run holds one
    ``phantom_match`` per executed insert, one ``fifo_pop`` per executed
    pop, and one ``egress`` per executed egress. An insert that an
    executed pop feeds lands past the cut too, and reads -1."""
    case, max_ticks = CUT_RUNS[cut]
    make_program, trace, cfg_kw, case_ticks = GRANULARITY_CASES[case]
    if max_ticks is None:
        max_ticks = case_ticks
    config = MP5Config(num_pipelines=k, **cfg_kw)
    recorder = TraceRecorder()
    run_mp5(
        make_program(), trace(), config, max_ticks=max_ticks,
        recorder=recorder,
    )
    live = collections.Counter(
        (event["type"], event.get("stage")) for event in recorder.events
    )
    switch = VectorSwitch(make_program(), config)
    switch.run(trace(), max_ticks=max_ticks)
    schedule = switch._last_schedule
    for pi, plan in enumerate(switch._vplans):
        executed = int(np.count_nonzero(schedule.ins_tick[pi] >= 0))
        assert live["phantom_match", plan.stage] == executed, (pi, "insert")
        executed = int(np.count_nonzero(schedule.pop_tick[pi] >= 0))
        assert live["fifo_pop", plan.stage] == executed, (pi, "pop")
    executed = int(np.count_nonzero(schedule.egr_tick >= 0))
    assert live["egress", None] == executed


#: Streaming gauges of three fixed (trace, chunking) runs, as the
#: epoch-by-epoch Phase A produced them before rows were resolved at
#: injection: (program, trace, config, chunk, max_ticks, max_steps).
STREAM_GAUGE_CASES = [
    (
        lambda: make_sensitivity_program(num_stateful=4, register_size=64),
        lambda: sensitivity_trace(600, 4, 4, 64, seed=0),
        dict(num_pipelines=4, remap_period=3),
        48, None, None,
        {"buffered": 0, "peak_buffered": 181, "epochs_serviced": 65},
    ),
    (
        lambda: make_sensitivity_program(num_stateful=4, register_size=64),
        lambda: sensitivity_trace(600, 8, 4, 64, seed=0),
        dict(num_pipelines=8, remap_period=7),
        [37, 400], 80, 1,
        {"buffered": 260, "peak_buffered": 437, "epochs_serviced": 12},
    ),
    (
        lambda: compile_program("flowlet"),
        lambda: line_rate_trace(
            1500, 4, HEADER_GENERATORS["flowlet"], seed=3, utilization=0.7
        ),
        dict(num_pipelines=2, remap_period=17),
        100, None, None,
        {"buffered": 0, "peak_buffered": 538, "epochs_serviced": 46},
    ),
]


@pytest.mark.parametrize("case", range(len(STREAM_GAUGE_CASES)))
def test_stream_gauges_pinned(case):
    """``buffered`` and ``peak_buffered`` count rows fed but without an
    egress assigned, and an egress is assigned when the row's last pop
    commits — not when Phase A resolves it at injection — so the gauges
    keep their values, cut for cut."""
    make_program, trace, cfg_kw, chunk, max_ticks, max_steps, gauges = (
        STREAM_GAUGE_CASES[case]
    )
    switch, _stats = _stream_vector(
        make_program(), trace(), MP5Config(**cfg_kw), chunk,
        max_ticks=max_ticks, max_steps=max_steps,
    )
    assert switch.stream_stats() == gauges


def _typed_arrivals(kind):
    """A trace whose arrivals are all ints, all floats, or both."""
    trace = sensitivity_trace(400, 4, 4, 64, seed=1)
    for i, pkt in enumerate(trace):
        whole = int(pkt.arrival)
        if kind == "int" or (kind == "mixed" and i % 2):
            pkt.arrival = whole
        else:
            # Tenths are inexact in binary: any arithmetic but IEEE
            # doubles shows in the latencies.
            pkt.arrival = whole + (i % 7) / 10
    return trace


@pytest.mark.parametrize("kind", ("int", "float", "mixed"))
def test_latency_type_contract_across_engines(kind):
    """A latency keeps its arrival's Python type on every engine (the
    vector engine subtracts one column when all arrivals share a type,
    row by row otherwise), so the latency list and the JSON summary are
    identical value for value and type for type."""
    program = make_sensitivity_program(num_stateful=4, register_size=64)
    config = MP5Config(num_pipelines=4)
    types = {"int": {int}, "float": {float}, "mixed": {int, float}}[kind]
    seen = {}
    for engine in ("dense", "fast", "vector"):
        switch = build_switch(engine, program, config)
        assert switch.engine == engine
        stats = switch.run(_typed_arrivals(kind))
        seen[engine] = (
            [(type(v), v) for v in stats.latencies],
            json.dumps(
                {k: stats.summary()[k] for k in ("mean_latency", "p99_latency")}
            ),
        )
    assert {t for t, _v in seen["vector"][0]} == types
    assert seen["vector"] == seen["fast"] == seen["dense"]


def test_vector_feed_after_draining_pump_rejected():
    """A draining pump commits the tail's remap decisions; feeding more
    arrivals afterwards would diverge from the batch run, so the engine
    refuses (the scalar engines allow it — the one asymmetry)."""
    from repro.errors import ConfigError

    program = make_sensitivity_program(num_stateful=4, register_size=64)
    switch = VectorSwitch(program, MP5Config(num_pipelines=4))
    switch.start()
    trace = sensitivity_trace(200, 4, 4, 64, seed=0)
    switch.feed(trace[:100])
    switch.pump()  # drain: no until_tick
    with pytest.raises(ConfigError, match="draining pump"):
        switch.feed(trace[100:])


@pytest.mark.parametrize(
    "arrival, port",
    [
        ([3, 3, 3, 3, 3], [3, 2, 2, 1, 0]),  # equal arrivals, ports down
        ([9, 7, 5.5, 5, 3], [0, 1, 0, 1, 2]),  # arrivals inverted
        ([1, 1, 2, 2.5, 4], [0, 2, 1, 1, 0]),  # already in order
    ],
)
def test_feed_rows_follow_arrival_then_port(arrival, port):
    """A fed batch lands in rows in (arrival, port, position) order
    whether or not it arrives in that order: the stable sort's rows, and
    the run equals the fast engine's."""
    program = make_sensitivity_program(num_stateful=2, register_size=16)
    config = MP5Config(num_pipelines=4)

    def trace():
        return [
            (a, p, {"idx0": i, "idx1": 3 * i})
            for i, (a, p) in enumerate(zip(arrival, port))
        ]

    switch = VectorSwitch(program, config)
    switch.start()
    switch.feed(trace())
    rows = np.lexsort((port, arrival)).tolist()
    n = len(rows)
    assert switch._H["idx0"][:n].tolist() == rows
    assert switch._port[:n].tolist() == [port[i] for i in rows]
    stats = switch.finish()
    assert (stats, switch.public_registers()) == run_mp5(
        program, trace(), config
    )


def test_negative_arrival_is_a_config_error_on_every_engine():
    """Every engine's ticks start at 0, as the wire's range check
    already says: a batch holding a negative arrival is a ``ConfigError``
    from ``feed``, raised before any state changes, and the trace is
    only read."""
    program = make_sensitivity_program(num_stateful=4, register_size=64)
    config = MP5Config(num_pipelines=4)
    fed = sensitivity_trace(2, 4, 4, 64, seed=0)
    fed[0].arrival, fed[1].arrival = 7, -5
    snap = _trace_snapshot(fed)
    for engine in ("dense", "fast", "vector"):
        switch = build_switch(engine, program, config)
        assert switch.engine == engine
        switch.start()
        with pytest.raises(ConfigError, match="arrivals must be >= 0"):
            switch.feed(fed)
        assert switch.stats.offered == 0, engine
        _assert_unchanged(fed, snap)


def test_vector_work_available_gates_on_watermark():
    """The uniform scheduling probe: False before any feed, True only
    once the watermark proves an epoch complete (or at drain)."""
    program = make_sensitivity_program(num_stateful=4, register_size=64)
    config = MP5Config(num_pipelines=4, remap_period=3)
    switch = VectorSwitch(program, config)
    switch.start()
    assert not switch.work_available(False)
    assert not switch.work_available(True)
    trace = sensitivity_trace(400, 4, 4, 64, seed=0)
    switch.feed(trace)
    assert switch.work_available(True)
    assert switch.work_available(False)  # watermark closed epochs exist
    switch.pump(until_tick=switch.ingest_watermark)
    assert not switch.work_available(False)  # parked at the watermark
    assert switch.work_available(True)  # drain still has the tail
    stats = switch.finish()
    assert stats.egressed == 400
    assert not switch.work_available(True)


# ---------------------------------------------------------------------------
# Engine registry and end-to-end reproduction
# ---------------------------------------------------------------------------


def test_engine_registry_complete():
    assert set(ENGINES) == {"dense", "fast", "vector"}
    program = make_sensitivity_program(num_stateful=2, register_size=16)
    results = [
        ENGINES[name](
            program, sensitivity_trace(120, 2, 2, 16, seed=0),
            MP5Config(num_pipelines=2),
        )
        for name in ("dense", "fast", "vector")
    ]
    assert results[0] == results[1] == results[2]


def test_runall_results_identical_across_engines(tmp_path):
    """The acceptance check behind the CI differential smoke job:
    ``reproduce --scale tiny`` writes byte-identical ``results.json``
    (Table 1, microbenchmarks, Figure 7, Figure 8) for both engines."""
    fast_dir = tmp_path / "fast"
    vec_dir = tmp_path / "vector"
    run_all(out_dir=str(fast_dir), scale="tiny", engine="fast")
    run_all(out_dir=str(vec_dir), scale="tiny", engine="vector")
    fast_bytes = (fast_dir / "results.json").read_bytes()
    vec_bytes = (vec_dir / "results.json").read_bytes()
    assert fast_bytes == vec_bytes
    data = json.loads(vec_bytes)
    assert "engine" not in data  # the engine choice must never leak


def test_runall_rejects_unknown_engine():
    with pytest.raises(ValueError):
        run_all(scale="tiny", engine="warp")


def test_large_scale_defined():
    from repro.harness.runall import SCALES

    knobs = SCALES["large"]
    assert knobs["num_packets"] == 50000
    assert len(knobs["seeds"]) > 1  # multi-seed tier
    assert knobs["engine"] == "vector"
    assert knobs["micro_packets"] < knobs["num_packets"]
