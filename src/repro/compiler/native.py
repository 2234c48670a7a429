"""Fused native (Numba) kernels for the batch engine's service loops.

:mod:`repro.compiler.vjit` executes a stage as a *sequence of NumPy
whole-array operations* — one pass over the batch per TAC instruction,
with the engine slicing batches into "waves" so same-index register
chains never share an invocation. This module lowers one step further:
the stage's TAC is flattened to SSA statements
(:func:`repro.compiler.lower.lower_stage`) and emitted as **one fused
per-row loop** —

    wasted = kernel.fn(rows, *columns)

— that executes the *entire* stage for one packet before moving to the
next. Rows are processed in exactly the order given, so a caller that
passes rows in global (tick, pipeline) service order gets the scalar
engines' serialized register semantics for free: no wave partitioning,
no per-instruction batch traffic, and same-index read-modify-write
chains are correct by construction. Under Numba the loop compiles to
native code (``@njit(nogil=True)``); without Numba the same source runs
as plain Python over the same int64 columns — still fused (one function
call per stage per batch instead of one dict per packet), still exact.

Admission rule is exactness, like vjit: a stage whose TAC contains a
builtin ``call`` (arbitrary Python, e.g. ``hash2``) raises
:class:`NativeUnsupported` and the engine keeps using the NumPy kernel
for that stage — per-stage, not per-program, so one hashing stage never
evicts the rest of the pipeline from the native tier.

Semantics are bit-identical to the TAC evaluator: 32-bit
two's-complement wrap after every arithmetic op (so int64 intermediates
never overflow), C-style truncating division/modulo with 0 on division
by zero, shift counts masked to 5 bits, guarded accesses that perform
no state access on a false guard, raw register/header stores, and
register indexes wrapped modulo the array size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..errors import CompilerError
from .lower import SSAStmt, StageSSA, lower_stage
from .tac import TacInstr

_counter = itertools.count()

# ---------------------------------------------------------------------------
# Numba availability probe (import once, never at module import time of
# the engines: `import numba` itself costs ~1 s when present)
# ---------------------------------------------------------------------------

_NUMBA_STATE: Optional[Tuple[Optional[object], Optional[str]]] = None


def _numba():
    """Return ``(numba_module | None, unavailable_reason | None)``."""
    global _NUMBA_STATE
    if _NUMBA_STATE is None:
        try:
            import numba  # type: ignore

            _NUMBA_STATE = (numba, None)
        except Exception as exc:  # ImportError, binary mismatch, ...
            _NUMBA_STATE = (None, f"{type(exc).__name__}: {exc}")
    return _NUMBA_STATE


def native_available() -> bool:
    """True when Numba can compile kernels in this interpreter."""
    return _numba()[0] is not None


def native_unavailable_reason() -> Optional[str]:
    """Why Numba is unavailable; None when it is importable."""
    return _numba()[1]


class NativeUnsupported(Exception):
    """The stage cannot be lowered to a native kernel (e.g. builtin
    calls); the engine keeps the NumPy kernel for it."""


@dataclass(frozen=True)
class NativeKernel:
    """One fused per-stage service kernel plus its column signature.

    ``fn(rows, *cols)`` expects ``cols`` in signature order: the header
    columns of :attr:`fields`, then the PHV columns of :attr:`temps`,
    then the register arrays of :attr:`regs` — all ``int64`` NumPy
    arrays. Returns the number of wasted slots (rows that executed no
    access on ``track_reg``; always 0 when tracking is off).
    """

    fn: Callable
    fields: Tuple[str, ...]
    temps: Tuple[str, ...]
    regs: Tuple[str, ...]
    track_reg: Optional[str]
    jitted: bool
    source: str


_WRAPPED_BINOPS = {"+", "-", "*", "&", "|", "^"}
_COMPARISONS = {"==", "!=", "<", "<=", ">", ">="}


def _wrap(expr: str) -> str:
    """Branchless wrap to signed 32 bits; see ``jit._wrapped``."""
    return f"((({expr}) + 2147483648) & 4294967295) - 2147483648"


def _ref(value, cols: dict) -> str:
    """Render an operand: inlined constant or local variable."""
    if isinstance(value, int):
        return repr(value)
    return value


class _Emitter:
    def __init__(self, ssa: StageSSA, track_reg: Optional[str]):
        self.ssa = ssa
        self.track_reg = track_reg
        self.lines: List[str] = []
        self.tmp = itertools.count()
        # Column parameter names, in signature order. Positional names
        # keep identifiers valid whatever the field/register names are.
        self.fields = tuple(
            sorted(set(ssa.fields_read) | set(ssa.fields_written))
        )
        self.temps = tuple(
            ssa.temps_in
            + tuple(t for t in ssa.temps_out if t not in ssa.temps_in)
        )
        self.regs = ssa.regs
        self.col = {}
        params = []
        for i, f in enumerate(self.fields):
            self.col[("field", f)] = name = f"hf{i}"
            params.append(name)
        for i, t in enumerate(self.temps):
            self.col[("temp", t)] = name = f"et{i}"
            params.append(name)
        for i, r in enumerate(self.regs):
            self.col[("reg", r)] = name = f"rg{i}"
            params.append(name)
        self.params = params

    def emit(self, line: str, depth: int = 2) -> None:
        self.lines.append("    " * depth + line)

    def _hit(self, reg: str, depth: int) -> None:
        if self.track_reg is not None and reg == self.track_reg:
            self.emit("_hit = 1", depth)

    def stmt(self, s: SSAStmt) -> None:
        emit = self.emit
        if s.kind == "field_load":
            arr = self.col[("field", s.field)]
            emit(f"{s.dest} = {_wrap(arr + '[_r]')}")
        elif s.kind == "field_store":
            value = _ref(s.args[0], self.col)
            if s.guard is None:
                emit(f"{self.col[('field', s.field)]}[_r] = {value}")
            else:
                emit(f"if {s.guard} != 0:")
                emit(f"{self.col[('field', s.field)]}[_r] = {value}", 3)
        elif s.kind == "const":
            emit(f"{s.dest} = {s.args[0]!r}")
        elif s.kind == "unary":
            a = _ref(s.args[0], self.col)
            if s.op == "-":
                emit(f"{s.dest} = {_wrap(f'-({a})')}")
            elif s.op == "!":
                emit(f"{s.dest} = 0 if ({a}) != 0 else 1")
            else:
                raise CompilerError(f"native: unknown unary op {s.op!r}")
        elif s.kind == "binary":
            self.binary(s)
        elif s.kind == "call":
            raise NativeUnsupported(
                f"builtin call {s.op!r} (arbitrary Python) in stage "
                f"{self.ssa.name}"
            )
        elif s.kind == "select":
            g, a, b = (_ref(x, self.col) for x in s.args)
            emit(f"{s.dest} = ({a}) if ({g}) != 0 else ({b})")
        elif s.kind == "reg_load":
            arr = self.col[("reg", s.reg)]
            idx = _ref(s.args[0], self.col)
            if s.guard is None:
                emit(f"{s.dest} = {arr}[({idx}) % {arr}.shape[0]]")
                self._hit(s.reg, 2)
            else:
                emit(f"if {s.guard} != 0:")
                emit(f"{s.dest} = {arr}[({idx}) % {arr}.shape[0]]", 3)
                self._hit(s.reg, 3)
                emit("else:")
                emit(f"{s.dest} = 0", 3)
        elif s.kind == "reg_store":
            arr = self.col[("reg", s.reg)]
            idx = _ref(s.args[0], self.col)
            value = _ref(s.args[1], self.col)
            if s.guard is None:
                emit(f"{arr}[({idx}) % {arr}.shape[0]] = {value}")
                self._hit(s.reg, 2)
            else:
                emit(f"if {s.guard} != 0:")
                emit(f"{arr}[({idx}) % {arr}.shape[0]] = {value}", 3)
                self._hit(s.reg, 3)
        else:
            raise CompilerError(f"native: unknown statement kind {s.kind}")

    def binary(self, s: SSAStmt) -> None:
        a = _ref(s.args[0], self.col)
        b = _ref(s.args[1], self.col)
        dest, op, emit = s.dest, s.op, self.emit
        if op in _WRAPPED_BINOPS:
            emit(f"{dest} = {_wrap(f'({a}) {op} ({b})')}")
        elif op in _COMPARISONS:
            emit(f"{dest} = 1 if ({a}) {op} ({b}) else 0")
        elif op in ("/", "%"):
            # C-style truncating division: quotient rounded toward zero,
            # remainder matching its sign rules, 0 on division by zero.
            q = f"_q{next(self.tmp)}"
            emit(f"if ({b}) == 0:")
            emit(f"{dest} = 0", 3)
            emit("else:")
            emit(f"{q} = abs({a}) // abs({b})", 3)
            emit(f"if (({a}) < 0) != (({b}) < 0):", 3)
            emit(f"{q} = -{q}", 4)
            if op == "/":
                emit(f"{dest} = {_wrap(q)}", 3)
            else:
                emit(f"{dest} = {_wrap(f'({a}) - ({b}) * {q}')}", 3)
        elif op == "&&":
            emit(f"{dest} = 1 if (({a}) != 0 and ({b}) != 0) else 0")
        elif op == "||":
            emit(f"{dest} = 1 if (({a}) != 0 or ({b}) != 0) else 0")
        elif op == "<<":
            emit(f"{dest} = {_wrap(f'({a}) << (({b}) & 31)')}")
        elif op == ">>":
            emit(f"{dest} = {_wrap(f'(({a}) & 4294967295) >> (({b}) & 31)')}")
        else:
            raise CompilerError(f"native: unknown binary op {op!r}")


def emit_stage_source(
    ssa: StageSSA, fname: str, track_reg: Optional[str] = None
) -> Tuple[str, _Emitter]:
    """Render a :class:`StageSSA` as fused per-row loop source."""
    em = _Emitter(ssa, track_reg)
    head = ", ".join(["rows"] + em.params)
    lines = [f"def {fname}({head}):", "    _wasted = 0"]
    em.lines = lines
    em.emit("for _k in range(rows.shape[0]):", 1)
    em.emit("_r = rows[_k]")
    if track_reg is not None:
        em.emit("_hit = 0")
    for t in ssa.temps_in:
        em.emit(f"{ssa.temp_vars[t]} = {em.col[('temp', t)]}[_r]")
    for s in ssa.stmts:
        em.stmt(s)
    for t in ssa.temps_out:
        em.emit(f"{em.col[('temp', t)]}[_r] = {ssa.temp_vars[t]}")
    if track_reg is not None:
        em.emit("if _hit == 0:")
        em.emit("_wasted += 1", 3)
    em.emit("return _wasted", 1)
    return "\n".join(lines), em


def compile_native_stage(
    instrs: Sequence[TacInstr],
    name: str = "stage",
    track_reg: Optional[str] = None,
    force_python: bool = False,
) -> Optional[NativeKernel]:
    """Compile one stage to a fused per-row kernel; None for empty input.

    Raises :class:`NativeUnsupported` for stages outside the envelope
    (builtin calls). When Numba is importable the loop is ``@njit``-
    compiled (``force_python=True`` skips that — the pure-Python tier,
    also what every platform without Numba gets). ``track_reg`` turns on
    wasted-slot counting for one register array (conservative phantoms).
    """
    if not instrs:
        return None
    ssa = lower_stage(instrs, name)
    if ssa is None:
        return None
    if ssa.has_call:
        raise NativeUnsupported(
            f"builtin call in stage {name} (arbitrary Python)"
        )
    fname = f"_n{name}"
    source, em = emit_stage_source(ssa, fname, track_reg)
    scope: dict = {}
    exec(compile(source, f"<native:{name}:{next(_counter)}>", "exec"), scope)
    fn = scope[fname]
    fn.__doc__ = source
    jitted = False
    if not force_python:
        numba, _reason = _numba()
        if numba is not None:
            fn = numba.njit(nogil=True, cache=False)(fn)
            jitted = True
    return NativeKernel(
        fn=fn,
        fields=em.fields,
        temps=em.temps,
        regs=em.regs,
        track_reg=track_reg,
        jitted=jitted,
        source=source,
    )
