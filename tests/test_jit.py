"""Tests for the TAC-to-Python stage compiler (repro.compiler.jit)."""

import numpy as np
import pytest

from repro.compiler import compile_program, preprocess
from repro.compiler.jit import compile_instrs, compile_program_stages
from repro.compiler.tac import TacEvaluator
from repro.domino import get_program, program_names
from repro.mp5 import MP5Config, MP5Switch

from .test_fuzz_equivalence import FIELDS, random_program
from .test_integration import HEADER_GENERATORS, OUT_OF_RANGE_LITERALS


def run_interpreted(program, headers, registers, env):
    evaluator = TacEvaluator(headers, registers, env)
    for stage in program.stages:
        evaluator.run(stage.instrs)


def run_jitted(program, headers, registers, env, on_access=None):
    for fn in compile_program_stages(program):
        if fn is not None:
            fn(headers, registers, env, on_access)


class TestSemanticEquivalence:
    @pytest.mark.parametrize("name", sorted(program_names()))
    def test_matches_interpreter_on_bundled_programs(self, name):
        program = compile_program(name)
        rng = np.random.default_rng(11)
        gen = HEADER_GENERATORS[name]
        regs_a = program.make_register_store()
        regs_b = program.make_register_store()
        for i in range(40):
            headers = gen(rng, i)
            ha, hb = dict(headers), dict(headers)
            run_interpreted(program, ha, regs_a, {})
            run_jitted(program, hb, regs_b, {})
            assert ha == hb, (name, i)
        assert regs_a == regs_b, name

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_interpreter_on_fuzzed_programs(self, seed):
        rng = np.random.default_rng(seed + 5000)
        program = compile_program(random_program(rng), name=f"jit-fuzz{seed}")
        regs_a = program.make_register_store()
        regs_b = program.make_register_store()
        for i in range(30):
            headers = {f: int(rng.integers(-64, 64)) for f in FIELDS}
            ha, hb = dict(headers), dict(headers)
            run_interpreted(program, ha, regs_a, {})
            run_jitted(program, hb, regs_b, {})
            assert ha == hb
        assert regs_a == regs_b

    def test_access_callback_fires_identically(self):
        program = compile_program("figure3")
        rng = np.random.default_rng(3)
        gen = HEADER_GENERATORS["figure3"]
        for i in range(20):
            headers = gen(rng, i)
            log_a, log_b = [], []
            run_a = TacEvaluator(
                dict(headers),
                program.make_register_store(),
                {},
                on_access=lambda r, x, k: log_a.append((r, x, k)),
            )
            for stage in program.stages:
                run_a.run(stage.instrs)
            run_jitted(
                program,
                dict(headers),
                program.make_register_store(),
                {},
                on_access=lambda r, x, k: log_b.append((r, x, k)),
            )
            assert log_a == log_b

    def test_wrap_semantics_preserved(self):
        source = (
            "struct Packet { int x; int out; };\n"
            "void func(struct Packet p) { p.out = p.x * 2147483647; }"
        )
        program = compile_program(source, name="wrap")
        for x in (-3, -1, 0, 1, 2, 2**30):
            ha = {"x": x, "out": 0}
            hb = dict(ha)
            run_interpreted(program, ha, program.make_register_store(), {})
            run_jitted(program, hb, program.make_register_store(), {})
            assert ha == hb, x

    @pytest.mark.parametrize("name", sorted(OUT_OF_RANGE_LITERALS))
    def test_out_of_range_literals_read_as_the_interpreter_reads(self, name):
        source, _expected = OUT_OF_RANGE_LITERALS[name]
        program = compile_program(source, name=name)
        regs_a = program.make_register_store()
        regs_b = program.make_register_store()
        for x in range(12):
            ha, hb = {"x": x}, {"x": x}
            run_interpreted(program, ha, regs_a, {})
            run_jitted(program, hb, regs_b, {})
            assert ha == hb, x
        assert regs_a == regs_b
        assert all(
            -(2**31) <= v < 2**31 for values in regs_a.values() for v in values
        )

    def test_division_semantics_preserved(self):
        source = (
            "struct Packet { int x; int y; int q; int r; };\n"
            "void func(struct Packet p) { p.q = p.x / p.y; p.r = p.x % p.y; }"
        )
        program = compile_program(source, name="div")
        for x, y in [(-7, 2), (7, -2), (7, 0), (0, 5), (-9, -4)]:
            ha = {"x": x, "y": y, "q": 0, "r": 0}
            hb = dict(ha)
            run_interpreted(program, ha, program.make_register_store(), {})
            run_jitted(program, hb, program.make_register_store(), {})
            assert ha == hb, (x, y)


class TestMechanics:
    def test_empty_stage_compiles_to_none(self):
        assert compile_instrs([]) is None

    def test_generated_source_is_inspectable(self):
        program = compile_program("packet_counter")
        fns = compile_program_stages(program)
        stateful = fns[1]
        assert "registers['count']" in stateful.__doc__ or (
            'registers["count"]' in stateful.__doc__
        )

    def test_cache_shared_across_calls(self):
        program = compile_program("wfq")
        assert program.jit_stage_functions() is program.jit_stage_functions()

    def test_env_carries_temps_across_stages(self):
        program = compile_program("figure3")
        env = {}
        run_jitted(
            program,
            {"h1": 1, "h2": 1, "h3": 2, "mux": 1, "val": 0},
            program.make_register_store(),
            env,
        )
        assert env  # temps published for later stages / diagnostics


class TestEndToEnd:
    def test_mp5_runs_the_compiled_stages_and_has_no_switch_for_it(self):
        """The interpreter is Banzai's — the oracle ``check_equivalence``
        holds the compiled stages to; no MP5 knob selects it."""
        program = compile_program("flowlet")
        switch = MP5Switch(program, MP5Config(num_pipelines=4))
        compiled = program.jit_stage_functions()
        assert switch._stage_fns[: len(compiled)] == list(compiled)
        with pytest.raises(TypeError, match="jit"):
            MP5Config(jit=False)
