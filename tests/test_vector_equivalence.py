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
from repro.faults import FaultSchedule
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
from repro.obs import InvariantMonitor, TraceRecorder
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


# name -> (program, MP5Config kwargs, build_switch/run keywords, reason).
# The seven config knobs of config_fallback_reason, armed faults (the
# uniform phantom loss that was a knob), access-order recording, and
# the three bundled programs outside the envelope.
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
    "tiny_fifo": (
        _sensitivity_program,
        dict(fifo_capacity=2),
        {},
        "bounded fifo_capacity",
    ),
    "ecn": (_sensitivity_program, dict(ecn_threshold=4), {}, "ecn_threshold"),
    "starvation": (
        _sensitivity_program,
        dict(starvation_threshold=5),
        {},
        "starvation_threshold",
    ),
    "crossbar": (
        _sensitivity_program, dict(record_crossbar=True), {}, "record_crossbar"
    ),
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
        "faults attached",
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

    fast = run_mp5(program, trace(), config, **run_kw)
    record = run_kw.get("record_access_order", False)
    for _ in range(2):
        switch = build_switch("vector", program, config, **run_kw)
        assert switch.engine == "fast"
        stats = switch.run(trace(), record_access_order=record)
        assert (stats, switch.public_registers()) == fast
    assert capsys.readouterr().err == line
    reset_fallback_warnings()
    assert run_mp5_vector(program, trace(), config, **run_kw) == fast
    assert capsys.readouterr().err == line


def test_vector_switch_refuses_what_the_ladder_settles():
    """Past construction a ``VectorSwitch`` never falls back: a
    non-empty schedule or access-order recording is misuse."""
    switch = VectorSwitch(_sensitivity_program(), MP5Config(num_pipelines=4))
    switch.attach_faults(FaultSchedule())  # empty: no schedule at all
    with pytest.raises(ConfigError, match="fault schedule"):
        switch.attach_faults(whole_run_loss(0.2))
    with pytest.raises(ConfigError, match="access order"):
        switch.start(record_access_order=True)


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
    schedule = FaultSchedule.load("examples/faults/slowdown.json")
    vec = run_mp5_vector(
        program,
        sensitivity_trace(200, 4, 4, 64, seed=0),
        config,
        faults=schedule,
    )
    assert "faults attached" in capsys.readouterr().err
    fast = run_mp5(
        program,
        sensitivity_trace(200, 4, 4, 64, seed=0),
        config,
        faults=FaultSchedule.load("examples/faults/slowdown.json"),
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
    """Faults remain outside the vector envelope: the CLI run warns
    exactly once and still prints the statistics block."""
    assert main(
        ["run", "heavy_hitter", "--packets", "300", "--engine", "vector",
         "--faults", "examples/faults/slowdown.json"]
    ) == 0
    captured = capsys.readouterr()
    assert captured.err.count("faults attached") == 1
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
):
    """Feed ``trace`` in ``chunk``-sized batches (an int, or a list of
    sizes cycled through) with a watermark-gated pump after every feed —
    the exact loop the service daemon runs. ``max_steps`` is the pump
    budget: every Phase B sweep, the drain's included, then covers at
    most that many epochs (1 is epoch-by-epoch service)."""
    switch = VectorSwitch(program, config)
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
