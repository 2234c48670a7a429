"""The vector engine's Phase B executors, and which stage gets which.

:mod:`repro.compiler.lower` flattens a stage's TAC into SSA;
:mod:`repro.compiler.native` prints one fused per-row kernel per stage
from that SSA (Numba-jitted when Numba is importable, plain Python
otherwise). There is no flag: a scan-shaped stage
(:func:`repro.compiler.lower.scan_form`) scans, any other serial plan
runs the fused kernel, and any other wave plan runs it only when it is
jitted. :data:`EXECUTORS` pins the choice for every bundled stage. The
oracle here is different code — the fast engine
(:func:`repro.mp5.run_mp5`), plus the dense one on the serial-plan
programs — and every (program, trace, config) must agree bit for bit,
with or without Numba installed.
"""

import numpy as np
import pytest

from repro.apps import ALL_APPS
from repro.cli import main
from repro.compiler import compile_program
from repro.compiler.lower import lower_stage
from repro.compiler.native import (
    compile_native_stage,
    native_available,
    native_unavailable_reason,
)
from repro.mp5 import (
    FLOW_ORDER_ARRAY,
    MP5Config,
    VectorSwitch,
    VectorUnsupported,
    run_mp5,
    run_mp5_reference,
    run_mp5_vector,
)
from repro.obs import (
    InvariantMonitor,
    PhaseProfiler,
    TraceRecorder,
    canonical_form,
)
from repro.service import SwitchService
from repro.workloads import line_rate_trace
from repro.workloads.synthetic import make_sensitivity_program, sensitivity_trace

from tests.test_fuzz_equivalence import FIELDS, random_program
from tests.test_integration import HEADER_GENERATORS

#: The bundled programs with at least one serial plan (pinned or
#: co-staged arrays, constant or in-stage indexes).
SERIAL_PLAN_PROGRAMS = (
    "avq",
    "conga",
    "packet_counter",
    "sampled_netflow",
    "sequencer",
    "stateful_index",
    "stateful_predicate",
    "wfq",
)

#: What the profiler must record for a stage the fused kernel serviced.
FUSED_TIER = "njit" if native_available() else "python"

#: The Phase B executor of every stateful stage of every bundled
#: program and of the benchmark program: ``"scan"``, or the one word
#: for why the stage keeps the wave decomposition or the fused kernel.
#: A program the vector engine does not admit is ``"out-of-envelope"``.
EXECUTORS = {
    "avq": {1: "scan", 4: "max"},
    "bloom_filter": {1: "scan", 2: "scan", 3: "scan"},
    "conga": {1: "co-staged"},
    "dctcp_alpha": {1: "divides"},
    "dns_ttl_change": {1: "scan", 3: "scan"},
    "ewma_latency": {2: "divides"},
    "figure3": "out-of-envelope",
    "flowlet": {1: "scan", 4: "scan"},
    "heavy_hitter": {1: "scan"},
    "netcache": "out-of-envelope",
    "packet_counter": {1: "scan"},
    "rcp": "out-of-envelope",
    "sampled_netflow": {1: "scan"},
    "sequencer": {1: "scan"},
    "stateful_firewall": {2: "scan"},
    "stateful_index": {1: "scan", 3: "scan"},
    "stateful_predicate": {1: "scan", 3: "scan", 4: "scan"},
    "stateless_rewrite": {},
    "syn_flood": {1: "scan"},
    "token_bucket": {1: "scan", 3: "clamps"},
    "wfq": {1: "scan", 2: "max"},
    "sensitivity": {1: "scan", 2: "scan", 3: "scan", 4: "scan"},
}

#: ``big``'s guard depends on ``hits``, read one stage earlier, so its
#: plan is serial *and* conservative: two packets in three waste the
#: slot their phantom reserved. ``{update}`` decides the executor: a
#: read-add-write scans, a division keeps the fused kernel.
SERIAL_CONSERVATIVE = """
struct Packet {{ int a; int b; }};
int hits = 0;
int big = 0;
void func(struct Packet p) {{
    if (hits % 3 == 0) {{ big = {update}; p.b = big; }} else {{ p.b = 1; }}
    hits = hits + 1;
}}
"""


def _vector(program, trace, config=None, max_ticks=None, **sinks):
    """The vector engine with no fallback permitted: an unsupported
    input fails the test instead of passing on the fast engine."""
    switch = VectorSwitch(program, config)
    switch.attach_observability(**sinks)
    stats = switch.run(trace, max_ticks=max_ticks)
    registers = {
        name: values
        for name, values in switch.registers.items()
        if name != FLOW_ORDER_ARRAY
    }
    return stats, registers


def _assert_native_matches(program, trace_factory, config=None, max_ticks=None):
    vec_stats, vec_regs = _vector(program, trace_factory(), config, max_ticks)
    fast_stats, fast_regs = run_mp5(
        program, trace_factory(), config, max_ticks=max_ticks
    )
    assert vec_stats == fast_stats
    assert vec_regs == fast_regs


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def _sensitivity_switch():
    return VectorSwitch(make_sensitivity_program(4, 64))


def test_lowering_is_deterministic():
    switch = _sensitivity_switch()
    for stage, instrs in enumerate(switch._stage_instrs):
        a = lower_stage(instrs, f"s{stage}")
        b = lower_stage(instrs, f"s{stage}")
        if a is None:
            assert b is None
            continue
        assert a.stmts == b.stmts
        assert a.temps_in == b.temps_in
        assert a.temps_out == b.temps_out
        assert a.regs == b.regs


def test_native_compile_source_is_deterministic():
    switch = _sensitivity_switch()
    compiled = 0
    for stage, instrs in enumerate(switch._stage_instrs):
        if not instrs:
            continue
        k1 = compile_native_stage(instrs, f"s{stage}", force_python=True)
        k2 = compile_native_stage(instrs, f"s{stage}", force_python=True)
        assert k1.source == k2.source
        compiled += 1
    assert compiled > 0


def test_kernels_cached_per_program_and_depth(monkeypatch):
    """Kernels live on the program, keyed by depth: once a program has
    run at two depths, further switches at either depth compile
    nothing."""
    import repro.mp5.vector as vector

    calls = []
    real = vector.compile_vector_stage

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(vector, "compile_vector_stage", counted)
    program = make_sensitivity_program(4, 64)
    first = VectorSwitch(program, MP5Config(pipeline_depth=16))
    VectorSwitch(program, MP5Config(pipeline_depth=12))
    assert len(calls) == 16 + 12
    del calls[:]
    again = VectorSwitch(program, MP5Config(pipeline_depth=16))
    VectorSwitch(program, MP5Config(pipeline_depth=12))
    assert calls == []
    assert again._vkernels is first._vkernels


def test_builtin_stage_lowers_to_plain_ops():
    """A stage containing a builtin CALL lowers to plain ops, so its
    fused kernel is jitted wherever Numba imports; ``avq``'s serial
    stage 4 (``max``) is the bundled case, and the run through it
    matches."""
    program = compile_program("avq")
    switch = VectorSwitch(program)
    (plan,) = [p for p in switch._vplans if p.stage == 4]
    assert plan.category == "serial"
    ssa = lower_stage(switch._stage_instrs[4], "s4")
    assert {s.kind for s in ssa.stmts} >= {"binary", "select"}
    kern = compile_native_stage(switch._stage_instrs[4], "s4")
    assert kern.jitted == native_available()
    assert "_builtins" not in kern.source
    _assert_native_matches(
        program,
        lambda: line_rate_trace(600, 4, HEADER_GENERATORS["avq"], seed=2),
        MP5Config(num_pipelines=4),
    )


# ---------------------------------------------------------------------------
# Numba availability
# ---------------------------------------------------------------------------


def test_unavailable_reason_consistent():
    if native_available():
        assert native_unavailable_reason() is None
    else:
        reason = native_unavailable_reason()
        assert reason and "numba" in reason.lower()


def test_python_tier_kernel_runs():
    """force_python compiles and executes without Numba present; left
    alone, a stage is jitted exactly when Numba imports."""
    switch = _sensitivity_switch()
    for stage, instrs in enumerate(switch._stage_instrs):
        if not instrs:
            continue
        kern = compile_native_stage(instrs, f"s{stage}", force_python=True)
        assert not kern.jitted
        assert callable(kern.fn)
        assert (
            compile_native_stage(instrs, f"s{stage}").jitted
            == native_available()
        )
        return
    pytest.fail("no stage compiled")


# ---------------------------------------------------------------------------
# Differential: vector engine vs the fast engine
# ---------------------------------------------------------------------------


def test_native_matches_sensitivity():
    program = make_sensitivity_program(4, 128)
    _assert_native_matches(
        program, lambda: sensitivity_trace(2500, 4, 4, 128, seed=3)
    )


@pytest.mark.parametrize("app_name", sorted(ALL_APPS))
def test_native_matches_real_apps(app_name):
    app = ALL_APPS[app_name]
    program = app.compile()
    _assert_native_matches(
        program,
        lambda: app.workload(1200, 4, seed=1),
        MP5Config(num_pipelines=4),
    )


#: Program seeds, all inside the vector envelope. 904 draws a
#: resolvable access guard, so it could only ever compare the fast
#: engine with itself through the fallback; 906 stands in for it.
FUZZ_PROGRAM_SEEDS = (900, 901, 902, 903, 906, 905)


@pytest.mark.parametrize("seed", range(6))
def test_native_matches_fuzzed_programs(seed):
    rng = np.random.default_rng(FUZZ_PROGRAM_SEEDS[seed])
    source = random_program(rng)
    program = compile_program(source)
    fields = list(FIELDS)

    def gen(r, _i):
        return {f: int(r.integers(0, 32)) for f in fields}

    _assert_native_matches(
        program,
        lambda: line_rate_trace(800, 4, gen, seed=seed),
        MP5Config(num_pipelines=4, seed=seed),
    )


@pytest.mark.parametrize("pipelines", (1, 2, 4))
def test_native_matches_across_pipeline_counts(pipelines):
    program = make_sensitivity_program(2, 64)
    _assert_native_matches(
        program,
        lambda: sensitivity_trace(1500, pipelines, 2, 64, seed=5),
        MP5Config(num_pipelines=pipelines),
    )


@pytest.mark.parametrize("pipelines", (1, 2, 4))
@pytest.mark.parametrize("name", SERIAL_PLAN_PROGRAMS)
def test_serial_plan_programs_three_engines(name, pipelines):
    """Every bundled program with a serial plan, on the executors
    :data:`EXECUTORS` pins: identical stats and registers to both
    scalar engines."""
    program = compile_program(name)
    config = MP5Config(num_pipelines=pipelines)

    def trace():
        return line_rate_trace(
            500, pipelines, HEADER_GENERATORS[name], seed=7
        )

    vec = _vector(program, trace(), config)
    assert vec == run_mp5(program, trace(), config)
    assert vec == run_mp5_reference(program, trace(), config)


@pytest.mark.parametrize("name", sorted(EXECUTORS))
def test_executor_table(name):
    """Which stages scan is the classifier's call, and this table pins
    it: a stage that starts or stops scanning fails here. The profiler
    reports the executor that ran — ``scan``, else the fused kernel for
    a serial plan and the wave decomposition (or, jitted, the fused
    kernel) for a wave plan — and the run equals the fast engine's."""
    want = EXECUTORS[name]
    sensitivity = name == "sensitivity"
    program = (
        make_sensitivity_program(4, 512) if sensitivity else compile_program(name)
    )

    def trace():
        if sensitivity:
            return sensitivity_trace(400, 4, 4, 512, seed=1)
        return line_rate_trace(400, 4, HEADER_GENERATORS[name], seed=1)

    if want == "out-of-envelope":
        with pytest.raises(VectorUnsupported):
            VectorSwitch(program)
        return
    plans = {
        p.stage: p for p in VectorSwitch(program)._vplans if p.category != "none"
    }
    assert {s: "scan" if p.scan else "-" for s, p in plans.items()} == {
        s: "scan" if why == "scan" else "-" for s, why in want.items()
    }
    profiler = PhaseProfiler()
    config = MP5Config(num_pipelines=4)
    assert _vector(program, trace(), config, profiler=profiler) == run_mp5(
        program, trace(), config
    )
    wave_tier = "njit" if native_available() else "numpy"
    assert {s: k["tier"] for s, k in profiler.kernels.items()} == {
        f"s{s}": "scan"
        if why == "scan"
        else FUSED_TIER
        if plans[s].category == "serial"
        else wave_tier
        for s, why in want.items()
    }


def _check_serial_conservative_observed(update, tier):
    """Trace reconstruction needs *which* rows wasted their slot; the
    scan reads them off its guard column and the fused kernel reports
    them itself, so attaching sinks does not swap the executor:
    canonical trace, alerts and wasted slots equal the fast engine's,
    and the profiler shows which executor ran."""
    program = compile_program(
        SERIAL_CONSERVATIVE.format(update=update), name="serial_conservative"
    )
    config = MP5Config(num_pipelines=4)

    def trace():
        return line_rate_trace(
            600, 4, lambda r, _i: {"a": int(r.integers(0, 9)), "b": 0}, seed=0
        )

    switch = VectorSwitch(program, config)
    (plan,) = [p for p in switch._vplans if p.base == "big"]
    assert plan.category == "serial" and plan.conservative

    observed = {}
    for label, runner in (("vector", _vector), ("fast", run_mp5)):
        recorder, monitor = TraceRecorder(), InvariantMonitor()
        profiler = PhaseProfiler()
        stats, regs = runner(
            program, trace(), config,
            recorder=recorder, monitor=monitor, profiler=profiler,
        )
        observed[label] = (
            stats,
            regs,
            canonical_form(recorder.events),
            [a.to_dict() for a in monitor.alerts],
        )
        if label == "vector":
            assert profiler.kernels["s4"]["tier"] == tier
    assert observed["vector"] == observed["fast"]
    assert observed["vector"][0].wasted_slots == 400


def test_serial_conservative_plan_observed_matches_fast():
    """The read-add-write ``big = big + p.a`` scans, taking its wasted
    slots from the guard column."""
    _check_serial_conservative_observed("big + p.a", "scan")


def test_serial_conservative_plan_observed_matches_fast_fused():
    """``big = big / 2 + p.a`` divides its register, so it keeps the
    fused kernel, which reports its wasted slots itself."""
    _check_serial_conservative_observed("big / 2 + p.a", FUSED_TIER)


@pytest.mark.parametrize("chunk", (1, 7, 64, 1000))
def test_serial_plan_streaming_matches_batch(chunk):
    """Streamed (feed + watermark-gated pump per chunk) equals the
    one-shot run — and the fast engine — on a serial plan."""
    program = compile_program("conga")
    config = MP5Config(num_pipelines=4, remap_period=3)

    def trace():
        return line_rate_trace(600, 4, HEADER_GENERATORS["conga"], seed=4)

    switch = VectorSwitch(program, config)
    switch.start()
    packets = trace()
    for i in range(0, len(packets), chunk):
        switch.feed(packets[i : i + chunk])
        switch.pump(until_tick=switch.ingest_watermark)
    streamed = (switch.finish(), dict(switch.registers))
    assert switch.stream_stats()["epochs_serviced"] > 0
    assert streamed == _vector(program, trace(), config)
    assert streamed == run_mp5(program, trace(), config)


# ---------------------------------------------------------------------------
# The removed knob fails loudly
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    (
        ["run", "heavy_hitter"],
        ["fig7", "a"],
        ["fig8"],
        ["reproduce"],
        ["serve", "heavy_hitter"],
    ),
    ids=lambda argv: argv[0],
)
def test_cli_rejects_native_flag(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--native"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --native" in capsys.readouterr().err


def test_api_rejects_native_keyword():
    program = make_sensitivity_program(2, 64)
    for call in (
        lambda **kw: VectorSwitch(program, **kw),
        lambda **kw: run_mp5(program, [], **kw),
        lambda **kw: run_mp5_vector(program, [], **kw),
        lambda **kw: SwitchService(engine="vector", **kw),
    ):
        call()  # the same call is fine without the keyword
        with pytest.raises(TypeError, match="native"):
            call(native=True)
