"""The fused per-row kernel is the vector engine's serial executor.

:mod:`repro.compiler.lower` flattens a stage's TAC into SSA;
:mod:`repro.compiler.native` prints one fused per-row kernel per stage
from that SSA (Numba-jitted when Numba is importable and the stage calls
no builtin, plain Python otherwise). There is no flag: every serial plan
runs it, a wave plan runs it only when it is jitted. So the oracle here
is different code — the fast engine (:func:`repro.mp5.run_mp5`), plus
the dense one on the serial-plan programs — and every (program, trace,
config) must agree bit for bit, with or without Numba installed.
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

#: ``big``'s guard depends on ``hits``, read one stage earlier, so its
#: plan is serial *and* conservative: two packets in three waste the
#: slot their phantom reserved.
SERIAL_CONSERVATIVE = """
struct Packet { int a; int b; };
int hits = 0;
int big = 0;
void func(struct Packet p) {
    if (hits % 3 == 0) { big = big + p.a; p.b = big; } else { p.b = 1; }
    hits = hits + 1;
}
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
        assert [s.render() for s in a.stmts] == [s.render() for s in b.stmts]
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


def test_builtin_call_stage_compiles_unjitted():
    """A stage containing a builtin CALL (arbitrary Python) compiles to
    a fused kernel that is never jitted; ``avq``'s serial stage 4
    (``max``) is the bundled case, and the run through it matches."""
    program = compile_program("avq")
    switch = VectorSwitch(program)
    (plan,) = [p for p in switch._vplans if p.stage == 4]
    assert plan.category == "serial"
    ssa = lower_stage(switch._stage_instrs[4], "s4")
    assert ssa.has_call
    kern = compile_native_stage(switch._stage_instrs[4], "s4")
    assert not kern.jitted
    assert "_builtins['max'](int(" in kern.source
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
    alone, a CALL-free stage is jitted exactly when Numba imports."""
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
    """Every bundled program with a serial plan, on the fused kernel:
    identical stats and registers to both scalar engines."""
    program = compile_program(name)
    config = MP5Config(num_pipelines=pipelines)
    profiler = PhaseProfiler()

    def trace():
        return line_rate_trace(
            500, pipelines, HEADER_GENERATORS[name], seed=7
        )

    vec = _vector(program, trace(), config, profiler=profiler)
    assert vec == run_mp5(program, trace(), config)
    assert vec == run_mp5_reference(program, trace(), config)
    assert FUSED_TIER in {k["tier"] for k in profiler.kernels.values()}


def test_serial_conservative_plan_observed_matches_fast():
    """Trace reconstruction needs *which* rows wasted their slot; the
    fused kernel reports them itself, so attaching sinks does not swap
    the executor: canonical trace, alerts and wasted slots equal the
    fast engine's, and the profiler shows the fused tier ran."""
    program = compile_program(SERIAL_CONSERVATIVE, name="serial_conservative")
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
            assert profiler.kernels["s4"]["tier"] == FUSED_TIER
    assert observed["vector"] == observed["fast"]
    assert observed["vector"][0].wasted_slots == 400


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
