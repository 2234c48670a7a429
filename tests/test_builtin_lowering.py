"""Builtins lower to plain SSA ops, and every printer computes them.

:func:`repro.compiler.lower.lower_call` expands ``hash2/3/5``, ``min``
and ``max`` into the ``binary``/``select`` statements their
:data:`repro.domino.builtins.BUILTINS` entry lists, so no printer has a
call branch. These properties hold each printer's output to the
reference function: on 32-bit arguments with the edges drawn
explicitly, and on out-of-range literals, which wrap where they enter
the IR. Wherever Numba imports (CI's ``native-smoke`` job), the jitted
fused kernel joins in, with its int64 form of the hash multiply.
"""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import preprocess
from repro.compiler.jit import compile_instrs
from repro.compiler.lower import lower_stage
from repro.compiler.native import compile_native_stage, native_available
from repro.compiler.tac import _to_signed32
from repro.compiler.vjit import compile_vector_stage, vector_builtin
from repro.domino import analyze, parse
from repro.domino.builtins import BUILTINS

INT32 = st.one_of(
    st.sampled_from([-(2**31), 2**31 - 1, 0, -1]),
    st.integers(-(2**31), 2**31 - 1),
)
#: Literal text past the 32-bit range (the language has no negative
#: literals; ``-x`` is a unary op on one).
LITERAL = st.one_of(
    st.sampled_from([2**31, 2**32 - 1, 2**32, 2**63]),
    st.integers(0, 2**64),
)


def _reference(name, values):
    return _to_signed32(BUILTINS[name](*(_to_signed32(v) for v in values)))


def _instrs(name, args):
    """``p.out = name(args)`` through the front end: an ``int`` is a
    literal, a string a packet field."""
    fields = sorted({a for a in args if isinstance(a, str)} | {"out"})
    text = ", ".join(f"p.{a}" if isinstance(a, str) else str(a) for a in args)
    program = parse(
        f"struct Packet {{ {' '.join(f'int {f};' for f in fields)} }};\n"
        f"void func(struct Packet p) {{ p.out = {name}({text}); }}"
    )
    analyze(program)
    return preprocess(program).instrs


@st.composite
def calls(draw):
    name = draw(st.sampled_from(sorted(BUILTINS)))
    args, values, headers = [], [], {}
    for i in range(BUILTINS[name].arity):
        if draw(st.booleans()):
            value = draw(INT32)
            args.append(f"a{i}")
            headers[f"a{i}"] = value
        else:
            value = draw(LITERAL)
            args.append(value)
        values.append(value)
    return name, args, values, headers


@given(calls())
@settings(max_examples=150, deadline=None)
def test_lowered_builtin_matches_reference_under_every_printer(call):
    name, args, values, headers = call
    expected = _reference(name, values)
    instrs = _instrs(name, args)
    ssa = lower_stage(instrs, "b")
    assert {s.kind for s in ssa.stmts} <= {
        "field_load", "field_store", "const", "binary", "select",
    }

    scalar = dict(headers)
    compile_instrs(instrs, "b")(scalar, {}, {}, None)
    assert scalar["out"] == expected

    rows = np.arange(1, dtype=np.int64)
    H = {f: np.array([v], dtype=np.int64) for f, v in headers.items()}
    H["out"] = np.zeros(1, dtype=np.int64)
    compile_vector_stage(instrs, "b", live_out=set()).fn(H, {}, {}, rows)
    assert H["out"].tolist() == [expected]

    kern = compile_native_stage(instrs, "b", force_python=True, live_out=set())
    cols = [H[f].copy() for f in kern.fields]
    kern.fn(rows, *cols)
    assert cols[kern.fields.index("out")].tolist() == [expected]


@lru_cache(maxsize=None)
def _column_kernels(name):
    """Every column form of ``p.out = name(p.a0, …)``, compiled once."""
    instrs = _instrs(name, [f"a{i}" for i in range(BUILTINS[name].arity)])
    kernels = [
        compile_native_stage(instrs, "b", force_python=True, live_out=set())
    ]
    if native_available():
        kernels.append(compile_native_stage(instrs, "b", live_out=set()))
        assert kernels[-1].jitted
    return compile_vector_stage(instrs, "b", live_out=set()), kernels


@given(
    name=st.sampled_from(sorted(BUILTINS)),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_lowered_builtin_matches_reference_on_columns(name, data):
    """A batch of rows through the NumPy kernel, the fused kernel (and
    its jitted form) and Phase A's :func:`vector_builtin`."""
    arity = BUILTINS[name].arity
    table = data.draw(
        st.lists(st.tuples(*[INT32] * arity), min_size=1, max_size=40)
    )
    expected = [_reference(name, row) for row in table]
    headers = {
        f"a{i}": np.array([row[i] for row in table], dtype=np.int64)
        for i in range(arity)
    }
    rows = np.arange(len(table), dtype=np.int64)

    vkern, fused = _column_kernels(name)
    H = {f: col.copy() for f, col in headers.items()}
    H["out"] = np.zeros(len(table), dtype=np.int64)
    vkern.fn(H, {}, {}, rows)
    assert H["out"].tolist() == expected

    for kern in fused:
        H = dict(headers, out=np.zeros(len(table), dtype=np.int64))
        cols = [H[f] for f in kern.fields]
        kern.fn(rows, *cols)
        assert cols[kern.fields.index("out")].tolist() == expected, kern.jitted

    phase_a = vector_builtin(name)(*headers.values())
    assert np.asarray(phase_a).tolist() == expected


@given(keys=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1))
@settings(max_examples=50, deadline=None)
def test_flow_order_hash_reads_raw_int64_keys(keys):
    """Phase A hashes the raw header column; only the low 32 bits of a
    key matter, as in the scalar engines' ``hash2(flow_key, …)``."""
    got = vector_builtin("hash2")(np.array(keys, dtype=np.int64), 0x5F0E)
    assert got.tolist() == [BUILTINS["hash2"](k, 0x5F0E) for k in keys]
