"""Observability parity: the vector engine's reconstructed streams.

The vector engine never steps ticks, so it cannot emit lifecycle
events live. Instead :mod:`repro.obs.reconstruct` feeds whatever sinks
were attached from the epoch schedule after the closed-form run — the
recorder one column block per event type. The contract this module
pins down:

* the reconstructed trace equals both scalar engines' live traces,
  written JSONL byte for byte and in :func:`canonical_form`
  (sensitivity workload, every app, flow ordering, max_ticks cuts),
* the metrics registry rolls identical windowed series and histograms,
* the invariant monitor sees the same alert stream (zero on fault-free
  runs) and health verdict on every Phase B executor,
* attaching sinks never changes the results (stats + registers), and
* the profiler's vector channels (phase spans, kernel tiers, epochs)
  populate and surface through ``trace-summary``.
"""

import json
import tempfile
from pathlib import Path

import pytest

from repro.apps import ALL_APPS
from repro.cli import main
from repro.compiler import compile_program
from repro.compiler.native import native_available
from repro.errors import ConfigError
from repro.harness.runall import SCALES, _observability_run
from repro.mp5 import (
    MP5Config,
    VectorSwitch,
    run_mp5,
    run_mp5_reference,
    run_mp5_vector,
)
from repro.obs import (
    InvariantMonitor,
    MetricsRegistry,
    PhaseProfiler,
    TraceRecorder,
    canonical_form,
    write_jsonl,
)
from repro.workloads import line_rate_trace
from repro.workloads.synthetic import make_sensitivity_program, sensitivity_trace

from tests.test_integration import HEADER_GENERATORS


def _jsonl_bytes(recorder):
    """The trace as ``write_jsonl`` writes it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        write_jsonl(recorder.events, path)
        return path.read_bytes()


def _run_observed(
    runner,
    program,
    trace,
    config,
    max_ticks=None,
    profile=False,
    **engine_kw,
):
    recorder = TraceRecorder()
    metrics = MetricsRegistry(window=50)
    monitor = InvariantMonitor()
    profiler = PhaseProfiler() if profile else None
    stats, regs = runner(
        program,
        trace,
        config,
        max_ticks=max_ticks,
        recorder=recorder,
        metrics=metrics,
        monitor=monitor,
        profiler=profiler,
        **engine_kw,
    )
    return {
        "stats": stats,
        "regs": regs,
        "trace": canonical_form(recorder.events),
        "jsonl": _jsonl_bytes(recorder),
        "events": len(recorder),
        "metrics": metrics.to_dict(),
        "alerts": [a.to_dict() for a in monitor.alerts],
        "health": monitor.health_report().to_dict(),
        "profiler": profiler,
    }


def _sensitivity_inputs(n=250, k=4, seed=0, **cfg_kw):
    program = make_sensitivity_program(num_stateful=4, register_size=64)
    config = MP5Config(num_pipelines=k, **cfg_kw)
    return (
        program, (lambda: sensitivity_trace(n, k, 4, 64, seed=seed)), config
    )


def _assert_parity(vec, ref, dense=None):
    assert vec["stats"] == ref["stats"]
    assert vec["regs"] == ref["regs"]
    assert vec["trace"] == ref["trace"]
    assert vec["jsonl"] == ref["jsonl"]
    assert vec["metrics"] == ref["metrics"]
    assert vec["alerts"] == ref["alerts"]
    assert vec["health"] == ref["health"]
    if dense is not None:
        assert vec["trace"] == dense["trace"]
        assert vec["jsonl"] == dense["jsonl"]
        assert vec["alerts"] == dense["alerts"]


# ---------------------------------------------------------------------------
# Three-engine trace equality
# ---------------------------------------------------------------------------


def test_trace_parity_sensitivity_three_engines():
    program, mk, config = _sensitivity_inputs()
    vec = _run_observed(run_mp5_vector, program, mk(), config)
    fast = _run_observed(run_mp5, program, mk(), config)
    dense = _run_observed(run_mp5_reference, program, mk(), config)
    assert vec["events"] > 0
    _assert_parity(vec, fast, dense)
    assert vec["alerts"] == []  # fault-free: monitor stays silent


@pytest.mark.parametrize("app_name", sorted(ALL_APPS))
def test_trace_parity_apps(app_name):
    app = ALL_APPS[app_name]
    program = app.compile()
    config = MP5Config(num_pipelines=4)
    vec = _run_observed(
        run_mp5_vector, program, app.workload(200, 4, seed=0), config
    )
    fast = _run_observed(run_mp5, program, app.workload(200, 4, seed=0), config)
    assert vec["events"] > 0
    _assert_parity(vec, fast)
    assert vec["alerts"] == []


@pytest.mark.parametrize(
    "cfg_kw",
    (
        dict(),
        dict(remap_algorithm="none"),
        dict(remap_period=16),
        dict(flow_order_field="f0", flow_order_size=32),
    ),
    ids=("default", "no_remap", "short_period", "flow_order"),
)
def test_trace_parity_configs(cfg_kw):
    program, mk, config = _sensitivity_inputs(**cfg_kw)
    vec = _run_observed(run_mp5_vector, program, mk(), config)
    fast = _run_observed(run_mp5, program, mk(), config)
    _assert_parity(vec, fast)


@pytest.mark.parametrize("max_ticks", (0, 40))
def test_trace_parity_max_ticks_cut(max_ticks):
    """A mid-flight cut truncates the reconstructed stream at exactly
    the same tick the scalar engines stop stepping."""
    program, mk, config = _sensitivity_inputs()
    vec = _run_observed(
        run_mp5_vector, program, mk(), config, max_ticks=max_ticks
    )
    fast = _run_observed(run_mp5, program, mk(), config, max_ticks=max_ticks)
    _assert_parity(vec, fast)


def test_trace_parity_empty_trace():
    program, _mk, config = _sensitivity_inputs()
    vec = _run_observed(run_mp5_vector, program, [], config)
    fast = _run_observed(run_mp5, program, [], config)
    assert vec["events"] == 0
    _assert_parity(vec, fast)


# ---------------------------------------------------------------------------
# Monitor parity across Phase B executors
# ---------------------------------------------------------------------------


def _conga_inputs():
    app = ALL_APPS["conga"]
    config = MP5Config(num_pipelines=4)
    return app.compile(), (lambda: app.workload(250, 4, seed=0)), config


def _dctcp_inputs():
    config = MP5Config(num_pipelines=4)
    return (
        compile_program("dctcp_alpha"),
        lambda: line_rate_trace(250, 4, HEADER_GENERATORS["dctcp_alpha"], seed=0),
        config,
    )


@pytest.mark.parametrize(
    "inputs, tier",
    (
        (_dctcp_inputs, "njit" if native_available() else "numpy"),
        (_conga_inputs, "njit" if native_available() else "python"),
        (_sensitivity_inputs, "scan"),
    ),
    ids=("serial-numpy", "serial-native", "scan"),
)
def test_monitor_zero_alerts_every_tier(inputs, tier):
    """Fault-free vector runs stay alert-free — and byte-identical to
    the fast engine — on every executor: the scan (the sensitivity
    program's counters), the fused per-row kernel (``conga``'s serial
    plan) and the NumPy wave decomposition (``dctcp_alpha`` divides
    its register, so it cannot scan)."""
    program, mk, config = inputs()
    vec = _run_observed(run_mp5_vector, program, mk(), config, profile=True)
    fast = _run_observed(run_mp5, program, mk(), config)
    _assert_parity(vec, fast)
    assert vec["alerts"] == []
    assert vec["health"]["verdict"] == "ok"
    assert {k["tier"] for k in vec["profiler"].kernels.values()} == {tier}


def test_results_identical_with_observability_on_and_off():
    """Attaching sinks must not perturb the simulation: stats and final
    registers are identical with observability on or off."""
    program, mk, config = _sensitivity_inputs()
    plain = run_mp5_vector(program, mk(), config)
    observed = _run_observed(run_mp5_vector, program, mk(), config)
    assert plain == (observed["stats"], observed["regs"])


def test_monitor_reuse_guard():
    """One monitor tracks one run, on the vector engine too."""
    program, mk, config = _sensitivity_inputs(n=60)
    monitor = InvariantMonitor()
    run_mp5_vector(program, mk(), config, monitor=monitor)
    with pytest.raises(ConfigError):
        run_mp5_vector(program, mk(), config, monitor=monitor)


def test_attach_after_run_raises():
    program, mk, config = _sensitivity_inputs(n=60)
    switch = VectorSwitch(program, config)
    switch.run(mk())
    with pytest.raises(ConfigError):
        switch.attach_observability(recorder=TraceRecorder())


# ---------------------------------------------------------------------------
# Profiler vector channels
# ---------------------------------------------------------------------------


def test_profiler_vector_channels_populate():
    program, mk, config = _sensitivity_inputs()
    vec = _run_observed(run_mp5_vector, program, mk(), config, profile=True)
    profiler = vec["profiler"]
    assert set(profiler.spans) >= {"phase_a", "phase_b", "trace_reconstruct"}
    assert profiler.kernels  # every stateful stage records a tier
    assert all(
        entry["tier"] in ("scan", "njit", "numpy", "python")
        for entry in profiler.kernels.values()
    )
    assert profiler.epochs and profiler.epochs[0]["start"] == 0
    report = profiler.report()
    assert "Phase split" in report
    assert "Service kernel tiers" in report
    dumped = profiler.to_dict()
    assert json.dumps(dumped)  # JSON-safe for the trace header
    assert dumped["spans"] == profiler.spans


def test_profiler_scalar_channels_stay_empty():
    program, mk, config = _sensitivity_inputs(n=60)
    fast = _run_observed(run_mp5, program, mk(), config, profile=True)
    profiler = fast["profiler"]
    assert not profiler.spans and not profiler.kernels
    assert not profiler.epochs
    assert "Vector epochs" not in profiler.report()


# ---------------------------------------------------------------------------
# CLI: trace-summary epoch section + hardening
# ---------------------------------------------------------------------------


def test_cli_trace_summary_epoch_section(tmp_path, capsys):
    trace_path = str(tmp_path / "vec.jsonl")
    assert main(
        ["run", "heavy_hitter", "--packets", "200", "--engine", "vector",
         "--profile", "--trace", trace_path, "--trace-format", "jsonl"]
    ) == 0
    capsys.readouterr()
    assert main(["trace-summary", trace_path]) == 0
    out = capsys.readouterr().out
    assert "Vector epochs" in out
    assert "Service kernel tiers" in out
    # Phase A's fixed cost: the phase_a span over the resolved epochs.
    header = json.loads(open(trace_path).readline())["profiler"]
    per_epoch = 1e6 * header["spans"]["phase_a"] / len(header["epochs"])
    assert f"  Phase A per epoch: {per_epoch:.1f} us\n" in out


def test_cli_profile_names_the_tier_that_ran(capsys):
    """``--profile`` reads the tier off the kernel that ran (``njit``
    only where Numba compiled it) and a vector run prints no empty
    fast-path table."""
    assert main(
        ["run", "conga", "--packets", "200", "--engine", "vector",
         "--profile"]
    ) == 0
    out = capsys.readouterr().out
    rows = out.split("Service kernel tiers\n")[1].splitlines()[2:]
    tiers = {row.split()[1] for row in rows if row.strip()}
    assert ("njit" in tiers) == native_available()
    assert ("python" in tiers) != native_available()
    assert "Fast-path phase breakdown" not in out


def test_cli_trace_summary_ignores_recorded_pool_block(tmp_path, capsys):
    """A trace recorded by an earlier ``--epoch-jobs`` run carries a
    ``profiler.pool`` block and ``pool``-tier kernels (and ``python``
    meant the per-packet dict loop then); the key is ignored and every
    remaining section still renders."""
    trace_path = tmp_path / "pooled.jsonl"
    profiler = {
        "ticks": 0,
        "seconds": {},
        "total_seconds": 0.0,
        "spans": {"phase_a": 0.02, "phase_b": 0.05},
        "kernels": {
            "s1": {"tier": "pool", "seconds": 0.04, "calls": 2},
            "s2": {"tier": "python", "seconds": 0.01, "calls": 2},
        },
        "pool": {"shared_bytes": 786432, "tasks": 4, "workers": 2},
        "epochs": [{"epoch": 0, "start": 0, "end": 1500, "remap_moves": 3}],
    }
    header = {"format": "mp5-trace-events", "version": 1, "profiler": profiler}
    trace_path.write_text(json.dumps(header) + "\n")
    assert main(["trace-summary", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "Vector epochs (1 resolved)" in out
    assert "Phase split" in out
    assert "Phase A per epoch: 20000.0 us" in out
    assert "Service kernel tiers" in out
    # The recorded tiers are still shown as recorded.
    assert "pool" in out and "python" in out
    assert "Epoch pool" not in out and "shared_bytes" not in out


def test_cli_trace_summary_without_profiler_block(tmp_path, capsys):
    """Scalar traces carry no profiler block: no epoch section, no
    error."""
    trace_path = str(tmp_path / "fast.jsonl")
    assert main(
        ["run", "heavy_hitter", "--packets", "200",
         "--trace", trace_path, "--trace-format", "jsonl"]
    ) == 0
    capsys.readouterr()
    assert main(["trace-summary", trace_path]) == 0
    assert "Vector epochs" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "block",
    (
        {"spans": "not-a-dict"},
        {"kernels": {"s1": 3}},
        {"epochs": [{"start": 0}]},
        "garbage",
    ),
    ids=("bad_spans", "bad_kernels", "bad_epochs", "not_object"),
)
def test_cli_trace_summary_malformed_profiler_block(tmp_path, capsys, block):
    trace_path = tmp_path / "bad.jsonl"
    header = {"format": "mp5-trace-events", "version": 1, "profiler": block}
    trace_path.write_text(json.dumps(header) + "\n")
    assert main(["trace-summary", str(trace_path)]) == 2
    err_line = [
        line
        for line in capsys.readouterr().out.splitlines()
        if "malformed profiler block" in line
    ]
    assert len(err_line) == 1  # one-line diagnostic


def test_cli_monitor_report_shows_vector_epochs(tmp_path, capsys):
    """A profiled vector run embeds its (deterministic) epoch
    boundaries in the alert-log meta; monitor-report surfaces them."""
    alerts_path = str(tmp_path / "alerts.jsonl")
    assert main(
        ["run", "heavy_hitter", "--packets", "200", "--engine", "vector",
         "--profile", "--alerts-out", alerts_path]
    ) == 0
    capsys.readouterr()
    assert main(["monitor-report", alerts_path]) == 0
    out = capsys.readouterr().out
    assert "vector epochs:" in out
    assert "resolved" in out


# ---------------------------------------------------------------------------
# Harness: instrumented-run artifacts diff clean across engines
# ---------------------------------------------------------------------------


def test_observability_run_artifacts_identical_across_engines(tmp_path):
    """The CI ``obs-vector-smoke`` contract: every artifact the
    instrumented run writes — both trace files, canonical trace,
    metrics, alerts, and the block embedded in ``results.json`` — is
    byte-identical between the vector and fast engines."""
    knobs = SCALES["tiny"]
    out_fast = tmp_path / "fast"
    out_vec = tmp_path / "vector"
    out_fast.mkdir()
    out_vec.mkdir()
    block_fast = _observability_run(out_fast, knobs, engine="fast")
    block_vec = _observability_run(out_vec, knobs, engine="vector")
    assert block_fast == block_vec
    for name in (
        "trace.json",
        "trace.jsonl",
        "trace_canonical.json",
        "metrics.json",
        "alerts.jsonl",
        "trace_summary.txt",
    ):
        assert (out_fast / name).read_bytes() == (out_vec / name).read_bytes()


# ---------------------------------------------------------------------------
# Array sinks: the registry and the monitor are fed window by window from
# the schedule's columns (repro.obs.reconstruct.feed_window_sinks), the
# scalar engines' live emitters stay the oracle
# ---------------------------------------------------------------------------

import copy  # noqa: E402

import numpy as np  # noqa: E402
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.obs.alerts import DETECTOR_SERIES  # noqa: E402
from repro.obs.reconstruct import (  # noqa: E402
    feed_recorder,
    feed_window_sinks,
)

SINK_SETS = (
    ("metrics",),
    ("monitor",),
    ("metrics", "monitor"),
    ("recorder", "metrics", "monitor"),
)


def _observe(
    runner, program, trace, config, sinks, window=50, max_ticks=None,
    retention=None,
):
    """One run with exactly ``sinks`` attached, reduced to everything the
    parity contract covers. ``window`` is either one window for both
    registries or a ``(registry, detector)`` pair; ``retention`` caps
    the user registry."""
    reg_window, det_window = window if isinstance(window, tuple) else (
        window, window
    )
    attached = {}
    if "metrics" in sinks:
        attached["metrics"] = MetricsRegistry(
            window=reg_window, retention=retention
        )
    if "monitor" in sinks:
        attached["monitor"] = InvariantMonitor(window=det_window)
    if "recorder" in sinks:
        attached["recorder"] = TraceRecorder()
    stats, regs = runner(
        program, trace, config, max_ticks=max_ticks, **attached
    )
    out = {"stats": stats, "regs": regs}
    if "metrics" in attached:
        metrics = attached["metrics"]
        out["metrics"] = metrics.to_dict()
        latency = metrics.histograms["latency"]
        # Bit-for-bit: float totals fold in the scalar egress order.
        out["latency_sum"] = float(latency.total_sum).hex()
        out["latency_mean"] = float(latency.mean).hex()
    if "monitor" in attached:
        monitor = attached["monitor"]
        out["monitor_registry"] = monitor.registry.to_dict()
        out["alerts"] = [a.to_dict() for a in monitor.alerts]
        out["health"] = monitor.health_report().to_dict()
        out["violations"] = dict(monitor.violations)
    if "recorder" in attached:
        out["trace"] = canonical_form(attached["recorder"].events)
        out["jsonl"] = _jsonl_bytes(attached["recorder"])
    return out


def _assert_three_engines(
    program, mk, config, sinks, window, max_ticks=None, retention=None
):
    vec, fast, dense = (
        _observe(
            runner, program, mk(), config, sinks, window, max_ticks, retention
        )
        for runner in (run_mp5_vector, run_mp5, run_mp5_reference)
    )
    assert vec == fast
    assert vec == dense
    return vec


def _fractional(trace):
    """Sub-tick arrivals that are not exactly representable sums, so a
    latency total folded in a different order would differ in its last
    bit."""
    for i, pkt in enumerate(trace):
        pkt.arrival = pkt.arrival + (i % 10) / 10.0
    return trace


@pytest.mark.parametrize("sinks", SINK_SETS, ids="+".join)
@pytest.mark.parametrize("window", (7, 50, 100))
def test_window_sinks_parity_every_attachment(sinks, window):
    """Registry-only, monitor-only, both, and all three sinks, at
    windows that do not divide the run."""
    program, mk, config = _sensitivity_inputs(n=260)
    vec = _assert_three_engines(program, mk, config, sinks, window)
    assert vec["stats"].ticks % window != 0


@pytest.mark.parametrize("max_ticks", (0, 37, 50, 100))
def test_window_sinks_parity_cuts(max_ticks):
    """Cuts before the first tick, mid-window, and exactly on a roll
    tick (the cut tick itself never executes, so its roll is the final
    one)."""
    program, mk, config = _sensitivity_inputs()
    _assert_three_engines(
        program, mk, config, ("metrics", "monitor"), 50, max_ticks
    )


@pytest.mark.parametrize("sinks", SINK_SETS, ids="+".join)
def test_window_sinks_parity_fractional_arrivals(sinks):
    """Float latencies: per-window means, the running ``total_sum`` and
    the overall ``mean`` agree bit for bit on all three engines."""
    program, mk, config = _sensitivity_inputs(n=400)
    _assert_three_engines(
        program, lambda: _fractional(mk()), config, sinks, 50
    )


@pytest.mark.parametrize("app_name", sorted(ALL_APPS))
def test_window_sinks_parity_apps(app_name):
    app = ALL_APPS[app_name]
    _assert_three_engines(
        app.compile(),
        lambda: app.workload(200, 4, seed=1),
        MP5Config(num_pipelines=4),
        ("metrics", "monitor"),
        7,
    )


@pytest.mark.parametrize(
    "cfg_kw",
    (
        dict(remap_algorithm="none"),
        dict(remap_period=16),
        dict(flow_order_field="f0", flow_order_size=32),
    ),
    ids=("no_remap", "short_period", "flow_order"),
)
def test_window_sinks_parity_configs(cfg_kw):
    program, mk, config = _sensitivity_inputs(**cfg_kw)
    _assert_three_engines(program, mk, config, ("metrics", "monitor"), 7)


@pytest.mark.parametrize(
    "window, n",
    (((7, 50), 600), ((50, 7), 300), ((20, 50), 600)),
    ids=("7+50", "50+7", "20+50"),
)
def test_window_sinks_parity_unequal_windows(window, n):
    """The registry and the detector on different windows: the bounds
    are a real union (20+50: neither window divides the other), each
    registry's rows land only on its own roll ticks, and the detector —
    which fires here — reads the row at its tick, not the last one the
    block append left."""
    program, mk, config = _sensitivity_inputs(
        n=n, flow_order_field="f0", flow_order_size=32
    )
    vec = _assert_three_engines(
        program, mk, config, ("recorder", "metrics", "monitor"), window
    )
    assert vec["alerts"]
    ticks = [row[0] for row in vec["metrics"]["series"]["egressed"]]
    assert ticks[:-1] == list(range(window[0], vec["stats"].ticks, window[0]))
    ticks = [row[0] for row in vec["monitor_registry"]["series"]["egressed"]]
    assert ticks[:-1] == list(range(window[1], vec["stats"].ticks, window[1]))


def test_window_sinks_parity_capped_registry():
    """``retention=8`` over more than 16 windows: thinning runs once per
    appended row, so the block append keeps the survivors that
    window-by-window rolls keep."""
    program, mk, config = _sensitivity_inputs(n=400)
    vec = _assert_three_engines(
        program, mk, config, ("metrics", "monitor"), (5, 7), retention=8
    )
    assert vec["stats"].ticks // 5 > 16
    series = vec["metrics"]["series"]["egressed"]
    assert len(series) <= 8
    assert series[-1][0] == vec["stats"].ticks


def test_window_sinks_parity_user_histogram():
    """A histogram the caller registers and feeds before the run, empty
    in every later window, and ``latency``, which is not: both start in
    the first window, so the series keep registration order (the
    caller's first) on every engine."""
    program, mk, config = _sensitivity_inputs(n=260)
    dumps = []
    for runner in (run_mp5_vector, run_mp5, run_mp5_reference):
        metrics = MetricsRegistry(window=50)
        metrics.histogram("foo").observe(1.5)
        runner(program, mk(), config, metrics=metrics)
        dumps.append(json.dumps(metrics.to_dict()))
    assert dumps[0] == dumps[1] == dumps[2]
    histograms = json.loads(dumps[0])["histograms"]
    assert list(histograms) == ["foo", "latency"]
    assert [row["tick"] for row in histograms["foo"]] == [50]
    assert histograms["latency"][0]["tick"] == 50
    assert len(histograms["latency"]) > 1


def _gapped(trace, gap):
    """The second half of the trace arrives ``gap`` ticks late."""
    for pkt in trace[len(trace) // 2 :]:
        pkt.arrival += gap
    return trace


@pytest.mark.parametrize("gap", (120, 2000), ids=("gap", "sparse"))
def test_window_sinks_parity_windows_without_egress(gap):
    """An idle gap leaves windows with no egress and no pop: no latency
    or wait row for them and zero-delta sampler rows, while the
    detector's EWMA walks through the dip. The long gap makes the run
    far longer than its rows: most windows see no event at all."""
    program, mk, config = _sensitivity_inputs(n=200)
    vec = _assert_three_engines(
        program, lambda: _gapped(mk(), gap), config,
        ("metrics", "monitor"), 25,
    )
    egressed = vec["metrics"]["series"]["egressed"]
    assert any(delta == 0 for _tick, delta in egressed)
    assert len(vec["metrics"]["histograms"]["latency"]) < len(egressed)
    if gap > 1000:
        assert vec["stats"].ticks > 4 * 200


def test_detector_alert_stream_matches_when_it_fires():
    """Runs whose phantom-wait detector warns (flow ordering on seed 0,
    none on seed 4): the warning comes out of the window pass with the
    scalar engines' tick and evidence. The monitor's registry holds
    exactly the detector's five cumulative series, and the warning's
    value is the window's wait sum over its pop count."""
    for inputs in (
        dict(n=300, flow_order_field="f0", flow_order_size=32),
        dict(seed=4),
    ):
        program, mk, config = _sensitivity_inputs(**inputs)
        vec = _assert_three_engines(program, mk, config, ("monitor",), 7)
        (alert,) = vec["alerts"]
        assert alert["kind"] == "phantom_wait_spike"
        assert vec["health"]["verdict"] == "degraded"
        registry = vec["monitor_registry"]
        assert list(registry["series"]) == list(DETECTOR_SERIES)
        assert registry["histograms"] == {}
        assert set(registry["kinds"].values()) == {"counter"}
        row = {
            name: dict(map(tuple, rows))[alert["tick"]]
            for name, rows in registry["series"].items()
        }
        mean = row["phantom_wait_sum"] / row["phantom_wait_count"]
        assert alert["evidence"]["value"] == round(mean, 4)


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    app_name=st.sampled_from(["sensitivity"] + sorted(ALL_APPS)),
    sinks=st.sampled_from(SINK_SETS),
    window=st.sampled_from((1, 7, 50, 100)),
    cut=st.sampled_from((None, None, 0, 23, 50, 100)),
    fractional=st.booleans(),
    cfg_kw=st.sampled_from(
        (
            dict(),
            dict(remap_algorithm="none"),
            dict(remap_period=16),
            dict(flow_order_field=True),
        )
    ),
    k=st.sampled_from((1, 2, 4)),
    seed=st.integers(min_value=0, max_value=5),
)
def test_window_sinks_parity_matrix(
    app_name, sinks, window, cut, fractional, cfg_kw, k, seed
):
    """The whole matrix, sampled: program x attachment x window x cut x
    arrival type x remap/ordering config x pipelines x seed."""
    cfg_kw = dict(cfg_kw)
    if app_name == "sensitivity":
        program = make_sensitivity_program(num_stateful=4, register_size=64)

        def mk():
            return sensitivity_trace(150, k, 4, 64, seed=seed)

        flow_field = "idx0"
    else:
        app = ALL_APPS[app_name]
        program = app.compile()

        def mk():
            return app.workload(150, k, seed=seed)

        flow_field = sorted(program.packet_fields)[0]
    if cfg_kw.pop("flow_order_field", False):
        cfg_kw.update(flow_order_field=flow_field, flow_order_size=32)
    config = MP5Config(num_pipelines=k, **cfg_kw)
    trace = (lambda: _fractional(mk())) if fractional else mk
    _assert_three_engines(program, trace, config, sinks, window, cut)


# ---------------------------------------------------------------------------
# Corrupted schedules: each array predicate raises what the monitor's
# emitter surface raises on the equivalent event sequence — or, where the
# emitters cannot see the corruption at all, raises where they stay silent
# ---------------------------------------------------------------------------


def _finished(n=250, max_ticks=None, **cfg_kw):
    program, mk, config = _sensitivity_inputs(n=n, **cfg_kw)
    switch = VectorSwitch(program, config)
    switch.run(mk(), max_ticks=max_ticks)
    return switch, switch._last_schedule


def _corruptible(schedule):
    """A copy whose tick columns can be edited without touching the
    finished switch's own arrays."""
    sched = copy.copy(schedule)
    sched.ins_tick = [t.copy() for t in schedule.ins_tick]
    sched.pop_tick = [t.copy() for t in schedule.pop_tick]
    sched.egr_tick = schedule.egr_tick.copy()
    return sched


def _array_monitor(switch, schedule, drained=True):
    monitor = InvariantMonitor()
    feed_window_sinks(switch, schedule, None, drained, monitor=monitor)
    return monitor


#: Each recorded type's emitter arguments after ``tick``, in call order
#: (``fifo_unblock`` is recorder-internal: no emitter takes it).
_EMITTER_ARGS = {
    "ingress": ("pkt", "pipe", "port", "flow"),
    "phantom_emit": ("pkt", "pipe", "stage", "array", "index"),
    "steer": ("pkt", "src", "pipe", "stage"),
    "phantom_match": ("pkt", "pipe", "stage"),
    "egress": ("pkt", "latency"),
    "fifo_block": ("pipe", "stage"),
    "fifo_pop": ("pkt", "pipe", "stage"),
    "service": ("pkt", "pipe", "stage"),
    "remap": ("moves",),
}


def _emitter_monitor(switch, schedule, drained=True):
    """The oracle: the schedule's recorded event stream replayed, in
    order, through the monitor's scalar-facing emitters."""
    recorder = TraceRecorder()
    feed_recorder(recorder, switch, schedule)
    monitor = InvariantMonitor()
    for event in recorder.events:
        args = _EMITTER_ARGS.get(event["type"])
        if args is not None:
            getattr(monitor, event["type"])(
                event["tick"], *(event[name] for name in args)
            )
    monitor.end_run(switch.stats.ticks, switch, drained)
    return monitor


def _critical(monitor, invariant):
    return [
        a.to_dict()
        for a in monitor.alerts
        if a.severity == "critical" and a.invariant == invariant
    ]


def _assert_same_verdict_on(invariant, array, oracle):
    assert _critical(array, invariant) == _critical(oracle, invariant)
    assert _critical(array, invariant)
    assert array.violations[invariant] == oracle.violations[invariant]
    assert array.health_report().verdict == "violated"
    assert oracle.health_report().verdict == "violated"


def test_clean_schedule_raises_nothing_on_either_path():
    switch, schedule = _finished()
    for monitor in (
        _array_monitor(switch, schedule),
        _emitter_monitor(switch, schedule),
    ):
        assert not monitor.violations
        assert monitor.health_report().verdict == "ok"


def test_corrupt_swapped_pops_of_one_index_breaks_c1_order():
    """Two consecutive accesses of one index pop in the wrong order
    (the later one was already queued, so nothing else is off)."""
    switch, schedule = _finished()
    sched = _corruptible(schedule)
    pi = 0
    idx = schedule.acc_idx[pi]
    pop, ins = schedule.pop_tick[pi], schedule.ins_tick[pi]
    dest = schedule.dest[pi]
    order = np.argsort(idx, kind="stable")
    pair = next(
        (int(a), int(b))
        for a, b in zip(order[:-1], order[1:])
        if idx[a] == idx[b] and dest[a] == dest[b] and 0 <= ins[b] <= pop[a]
    )
    a, b = pair
    sched.pop_tick[pi][a], sched.pop_tick[pi][b] = pop[b], pop[a]
    array = _array_monitor(switch, sched)
    oracle = _emitter_monitor(switch, sched)
    _assert_same_verdict_on("c1_order", array, oracle)
    assert array.violations == oracle.violations == {"c1_order": 1}
    alert = _critical(array, "c1_order")[0]
    assert alert["evidence"]["pkt"] == a
    assert alert["evidence"]["prev_pkt"] == b


def test_corrupt_pop_before_insert_breaks_fifo_sanity():
    """The first packet of a lane pops a tick before it is inserted.
    No emitter can see that (a pop of an unqueued packet is legal on
    the phantom-less configs they also serve) and the per-event replay
    ran ``_check_fifos`` against the engine's never-used FIFO objects,
    so this is coverage only the array predicates have."""
    switch, schedule = _finished()
    sched = _corruptible(schedule)
    pi = 1
    pop = schedule.pop_tick[pi]
    lane = schedule.dest[pi] == 0
    first = int(np.nonzero(lane)[0][np.argmin(pop[lane])])
    sched.pop_tick[pi][first] = schedule.ins_tick[pi][first] - 1
    array = _array_monitor(switch, sched)
    oracle = _emitter_monitor(switch, sched)
    assert not oracle.violations
    assert oracle.health_report().verdict == "ok"
    alerts = _critical(array, "fifo_sanity")
    assert len(alerts) == 1
    stage = switch._vplans[pi].stage
    assert alerts[0]["evidence"] == {
        "fifo": [0, stage], "total": 0, "data": -1, "slots": 0
    }
    assert alerts[0]["tick"] == int(sched.pop_tick[pi][first])
    assert array.violations["fifo_sanity"] == 1
    # The late match pairs nothing, which shows at the packet's egress.
    assert array.violations["phantom_pairing"] == 1
    assert array.health_report().verdict == "violated"


def test_corrupt_dropped_match_breaks_phantom_pairing():
    """A packet pops and egresses without ever matching one of its
    phantoms."""
    switch, schedule = _finished()
    sched = _corruptible(schedule)
    pi = len(switch._vplans) - 1
    row = int(np.nonzero(schedule.pop_tick[pi] >= 0)[0][40])
    sched.ins_tick[pi][row] = -1
    array = _array_monitor(switch, sched)
    oracle = _emitter_monitor(switch, sched)
    _assert_same_verdict_on("phantom_pairing", array, oracle)
    alert = _critical(array, "phantom_pairing")[0]
    assert alert["tick"] == int(schedule.egr_tick[row])
    assert alert["evidence"] == {"pkt": row, "outstanding": 1}


def test_corrupt_egress_of_unmatched_row_breaks_pairing_and_conservation():
    """A packet still queued when ``max_ticks`` cut the run egresses
    anyway. Both paths flag the unmatched phantoms; only the array path
    also sees that the engine's counters no longer add up (the replay
    checked conservation against a view it advanced itself)."""
    switch, schedule = _finished(max_ticks=60)
    assert schedule.egr_assigned < schedule.injected
    sched = _corruptible(schedule)
    last = len(switch._vplans) - 1
    stuck = (np.arange(schedule.inj.shape[0]) < schedule.injected) & (
        schedule.ins_tick[last] < 0
    )
    row = int(np.nonzero(stuck)[0][0])
    sched.egr_tick[row] = switch.stats.ticks - 1
    array = _array_monitor(switch, sched, drained=False)
    oracle = _emitter_monitor(switch, sched, drained=False)
    _assert_same_verdict_on("phantom_pairing", array, oracle)
    assert "conservation" not in oracle.violations
    assert array.violations["conservation"] == 2
    live, stats = _critical(array, "conservation")
    assert live["message"].startswith("engine live-packet count")
    assert stats["message"].startswith("SwitchStats disagrees")
    assert stats["evidence"]["egressed"] == stats["evidence"]["stats_egressed"] + 1


def test_corrupt_double_pop_in_one_tick_breaks_fifo_sanity():
    """Two packets of one lane pop in the same tick — something the
    scalar engines cannot do, so only a schedule is checked for it."""
    switch, schedule = _finished()
    sched = _corruptible(schedule)
    pi = 0
    lane = np.nonzero(schedule.dest[pi] == 0)[0]
    by_pop = lane[np.argsort(schedule.pop_tick[pi][lane])]
    a, b = int(by_pop[10]), int(by_pop[11])
    sched.pop_tick[pi][a] = schedule.pop_tick[pi][b]
    array = _array_monitor(switch, sched)
    stage = switch._vplans[pi].stage
    rates = [
        alert
        for alert in _critical(array, "fifo_sanity")
        if "pops" in alert["evidence"]
    ]
    assert len(rates) == 1
    assert rates[0]["tick"] == int(schedule.pop_tick[pi][b])
    assert rates[0]["evidence"] == {"fifo": [0, stage], "pops": 2}
    assert array.health_report().verdict == "violated"


def test_corrupt_index_moved_with_packets_in_flight_breaks_exclusivity():
    """An access lands on another pipeline while an earlier access of
    the same index is still queued: no remap boundary separates them."""
    switch, schedule = _finished()
    sched = _corruptible(schedule)
    pi = 0
    sched.dest = [d.copy() for d in schedule.dest]
    idx, pop, inj = schedule.acc_idx[pi], schedule.pop_tick[pi], schedule.inj
    order = np.argsort(idx, kind="stable")
    a, b = next(
        (int(a), int(b))
        for a, b in zip(order[:-1], order[1:])
        if idx[a] == idx[b] and pop[a] >= inj[b]
    )
    sched.dest[pi][b] = (schedule.dest[pi][b] + 1) % 4
    array = _array_monitor(switch, sched)
    alerts = _critical(array, "shard_exclusivity")
    assert len(alerts) == 1
    assert alerts[0]["evidence"]["index"] == int(idx[b])
    assert alerts[0]["evidence"]["from"] == int(schedule.dest[pi][a])
    assert alerts[0]["evidence"]["to"] == int(sched.dest[pi][b])
    assert alerts[0]["evidence"]["in_flight"] >= 1


def test_real_remaps_pass_the_exclusivity_predicate():
    """Indices do move on this run; every move is separated from the
    accesses around it by the remap boundary that made it."""
    switch, schedule = _finished(n=600, remap_period=16)
    assert sum(moved for _tick, moved in schedule.remap_records) > 0
    array = _array_monitor(switch, schedule)
    assert not array.violations


# ---------------------------------------------------------------------------
# Column-summarized histogram windows
# ---------------------------------------------------------------------------

from repro.obs.metrics import WindowedHistogram, window_rows  # noqa: E402


def _flushed(windows):
    """The rows a histogram flushes when fed ``windows`` one by one."""
    hist = WindowedHistogram("h")
    rows = []
    for window in windows:
        for value in window:
            hist.observe(value)
        rows.append(hist.flush())
    return rows


def _summary(window):
    """The window summary rule, spelled out: a stable sort, nearest-rank
    percentiles, and the builtin ``sum`` in sorted order."""
    if not window:
        return None
    values = sorted(window)
    n = len(values)

    def pct(p):
        return values[min(n - 1, int(round(p / 100 * (n - 1))))]

    return {
        "count": n,
        "min": values[0],
        "max": values[-1],
        "mean": sum(values) / n,
        "p50": pct(50),
        "p99": pct(99),
    }


def _cuts(windows):
    return np.cumsum([0] + [len(w) for w in windows]).tolist()


def test_window_rows_equal_flush_on_floats_with_ties():
    """One-element, empty and tied windows (ints among the floats, so
    the order of equal values shows as a row's types), summarized from
    one list in observation order: every row is the rule's, and the one
    ``flush`` gives, to the byte (``json`` tells 3 from 3.0 and prints
    the mean's every bit)."""
    windows = [
        [0.1],
        [],
        [2.5, 0.1, 2.5, 2, 0.30000000000000004, 0.1 + 0.2, 7.75],
        [3.0, 3, 1.5, 3, 0.7],
        [0.3, 0.2, 0.1],  # sums to another last bit unsorted
        [5],
        [x / 10 for x in range(101, 0, -1)],
    ]
    flat = [value for window in windows for value in window]
    expected = json.dumps([_summary(w) for w in windows])
    assert json.dumps(window_rows(flat, _cuts(windows))) == expected
    assert json.dumps(_flushed(windows)) == expected


def test_clean_monitored_vector_run_does_not_import_numpy_ma():
    """A clean monitored vector run needs nothing from ``numpy.ma``
    (``np.unique`` imports it lazily), so it never pays that import."""
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    code = (
        "import sys\n"
        "from repro.mp5 import MP5Config, run_mp5_vector\n"
        "from repro.obs import InvariantMonitor, MetricsRegistry\n"
        "from repro.workloads.synthetic import (\n"
        "    make_sensitivity_program, sensitivity_trace)\n"
        "monitor = InvariantMonitor()\n"
        "run_mp5_vector(make_sensitivity_program(4, 64),\n"
        "    sensitivity_trace(300, 4, 4, 64, seed=0),\n"
        "    MP5Config(num_pipelines=4), monitor=monitor,\n"
        "    metrics=MetricsRegistry(window=7))\n"
        "assert monitor.health_report().verdict == 'ok'\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
