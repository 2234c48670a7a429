"""SSA-to-NumPy compilation for the batch (vector) engine.

:mod:`repro.compiler.jit` prints a stage's lowered statements
(:func:`repro.compiler.lower.lower_stage`) as one Python function over
scalar packet state; this module prints the same statements as one
function over *columns* — structure-of-arrays packet state where every
header field and every PHV temp is a contiguous ``int64`` array indexed
by packet row. A kernel invocation executes the stage for a whole batch
of packets at once:

    kernel.fn(H, registers, E, rows, acc=None)

* ``H``    — dict field name -> int64[N] (all packets; raw header
  values, wrapped on read exactly like the scalar engines);
* ``registers`` — dict array name -> int64 NumPy array (shared state);
* ``E``    — dict temp name -> int64[N] (the PHV columns);
* ``rows`` — int64 index array selecting the packets to process;
* ``acc``  — optional dict array name -> bool[len(rows)]; a lane is set
  when the packet actually executed a register access on that array
  (i.e. its guard evaluated true), which is what the wasted-slot
  accounting for conservative phantoms needs.

Semantics are bit-identical to the scalar printer / interpreter: 32-bit
two's-complement wrap on arithmetic, C-style truncating division and
modulo, shift counts masked to 5 bits, guarded register reads producing
0 on a false guard, raw (unwrapped) register and header stores.
Builtin calls (``hash2`` etc.) arrive lowered to those statements, so
they run as whole-column ops too; :func:`vector_builtin` prints one on
its own for Phase A's flow-order hash.

The caller is responsible for ordering: register read-modify-write
chains are only correct when no two rows in one invocation touch the
same register slot (the vector engine's wave decomposition runs such
"waves"; see :mod:`repro.mp5.epochs`). A scan-shaped stage
(:func:`~repro.compiler.lower.scan_form`) has no such limit:
:func:`compile_scan_stage` prints its update's row-only coefficients
and its publishing statements, and the engine chains the rows of a
register slot itself.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..domino.builtins import BUILTINS
from ..errors import CompilerError
from .jit import _BITWISE, _COMPARISONS, _WRAPPED_BINOPS, _wrapped
from .lower import (
    SSAStmt,
    StageSSA,
    Value,
    live_stmts,
    lower_call,
    lower_stage,
    scan_form,
)
from .tac import TacInstr

_counter = itertools.count()


def _truthy(x):
    return np.asarray(x) != 0


def _maskn(g, n: int) -> np.ndarray:
    """Broadcast a guard value to a bool[n] lane mask."""
    m = np.asarray(g) != 0
    if m.ndim == 0:
        return np.full(n, bool(m)) if n else np.zeros(0, dtype=bool)
    return m


def _divv(a, b):
    """C-style truncating division, 0 on division by zero, wrapped."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    bb = np.where(b == 0, 1, b)
    q = np.abs(a) // np.abs(bb)
    q = np.where((a < 0) != (bb < 0), -q, q)
    return np.where(b == 0, 0, ((q + 2147483648) & 4294967295) - 2147483648)


def _modv(a, b):
    """``a - b * trunc(a / b)``, 0 on division by zero, wrapped (the
    wrapped quotient changes ``b * q`` by a multiple of 2**32 only)."""
    b = np.asarray(b, dtype=np.int64)
    r = a - b * _divv(a, b)
    return np.where(b == 0, 0, ((r + 2147483648) & 4294967295) - 2147483648)


def _regset(arr, idx, val, mask=None) -> None:
    """Masked scatter into a register column or header column."""
    if mask is None:
        if np.ndim(idx) == 0 and np.ndim(val) != 0:
            # Constant index: every row writes the same slot, last wins.
            arr[idx] = val[-1]
        else:
            arr[idx] = val
    else:
        idx = np.broadcast_to(np.asarray(idx), mask.shape)
        val = np.broadcast_to(np.asarray(val), mask.shape)
        arr[idx[mask]] = val[mask]


def _acc_set(acc, reg: str) -> None:
    if acc is not None:
        lane = acc.get(reg)
        if lane is not None:
            lane[:] = True


def _acc_or(acc, reg: str, mask) -> None:
    if acc is not None:
        lane = acc.get(reg)
        if lane is not None:
            lane |= np.broadcast_to(mask, lane.shape)


@dataclass(frozen=True)
class VectorKernel:
    """One compiled stage plus the metadata the engine plans with."""

    fn: Callable
    fields_read: frozenset
    fields_written: frozenset
    temps_in: Tuple[str, ...]  # loaded from E before the stage
    temps_out: Tuple[str, ...]  # stored to E after the stage
    stateful: Tuple[TacInstr, ...]  # REG_READ/REG_WRITE, program order
    source: str


def _print(s: SSAStmt, lines: List[str], column: Optional[str] = None) -> None:
    """One lowered statement as NumPy whole-batch statements. Given a
    ``column``, a register load reads it instead of the register."""
    pad = "    "
    args = s.operands()
    if s.kind == "reg_load" and column is not None:
        if s.guard is not None:
            column = f"_np.where(_maskn({s.guard}, _n), {column}, 0)"
        lines.append(f"{pad}{s.dest} = {column}")
    elif s.kind == "field_load":
        lines.append(f"{pad}{s.dest} = {_wrapped(f'H[{s.field!r}][rows]')}")
    elif s.kind == "field_store":
        if s.guard is None:
            lines.append(f"{pad}H[{s.field!r}][rows] = {args[0]}")
        else:
            lines.append(f"{pad}_m = _maskn({s.guard}, _n)")
            lines.append(f"{pad}_regset(H[{s.field!r}], rows, {args[0]}, _m)")
    elif s.kind == "const":
        lines.append(f"{pad}{s.dest} = {args[0]}")
    elif s.kind == "unary":
        (a,) = args
        if s.op == "-":
            lines.append(f"{pad}{s.dest} = {_wrapped(f'-({a})')}")
        elif s.op == "!":
            lines.append(f"{pad}{s.dest} = _np.where(_truthy({a}), 0, 1)")
        else:
            raise CompilerError(f"vjit: unknown unary op {s.op!r}")
    elif s.kind == "binary":
        lines.append(f"{pad}{s.dest} = {_binary(s.op, *args)}")
    elif s.kind == "select":
        g, a, b = args
        lines.append(f"{pad}{s.dest} = _np.where(_truthy({g}), {a}, {b})")
    elif s.kind in ("reg_load", "reg_store"):
        guarded = s.guard is not None
        lines.append(f"{pad}_a = registers[{s.reg!r}]")
        lines.append(f"{pad}_i = ({args[0]}) % _a.shape[0]")
        if guarded:
            lines.append(f"{pad}_m = _maskn({s.guard}, _n)")
        if s.kind == "reg_load":
            value = "_np.where(_m, _a[_i], 0)" if guarded else "_a[_i]"
            lines.append(f"{pad}{s.dest} = {value}")
        else:
            mask = ", _m" if guarded else ""
            lines.append(f"{pad}_regset(_a, _i, {args[1]}{mask})")
        lines.append(
            f"{pad}_acc_or(acc, {s.reg!r}, _m)"
            if guarded
            else f"{pad}_acc_set(acc, {s.reg!r})"
        )
    else:
        raise CompilerError(f"vjit: unknown statement kind {s.kind}")


def _binary(op: str, a: str, b: str) -> str:
    if op in _WRAPPED_BINOPS:
        return _wrapped(f"({a}) {op} ({b})")
    if op in _BITWISE:
        return f"({a}) {op} ({b})"
    if op in _COMPARISONS:
        return f"_np.where(({a}) {op} ({b}), 1, 0)"
    if op == "/":
        return f"_divv({a}, {b})"
    if op == "%":
        return f"_modv({a}, {b})"
    if op == "&&":
        return f"_np.where(_truthy({a}) & _truthy({b}), 1, 0)"
    if op == "||":
        return f"_np.where(_truthy({a}) | _truthy({b}), 1, 0)"
    if op == "<<":
        return _wrapped(f"_i64({a}) << (_i64({b}) & 31)")
    if op == ">>":
        return _wrapped(f"(_i64({a}) & 4294967295) >> (_i64({b}) & 31)")
    raise CompilerError(f"vjit: unknown binary op {op!r}")


def _i64(x):
    return np.asarray(x, dtype=np.int64)


#: What generated kernels may name besides their parameters.
_SCOPE = dict(
    _np=np, _truthy=_truthy, _maskn=_maskn, _divv=_divv, _modv=_modv,
    _regset=_regset, _acc_set=_acc_set, _acc_or=_acc_or, _i64=_i64,
)


def _exec(source: str, tag: str, fname: str) -> Callable:
    scope = dict(_SCOPE)
    exec(compile(source, f"<vjit:{tag}:{next(_counter)}>", "exec"), scope)
    fn = scope[fname]
    fn.__doc__ = source
    return fn


def compile_vector_stage(
    instrs: Sequence[TacInstr],
    name: str = "stage",
    live_out: Optional[Set[str]] = None,
) -> Optional[VectorKernel]:
    """Compile one stage's instruction list to a batch kernel;
    ``live_out`` as in :func:`~repro.compiler.lower.lower_stage`."""
    ssa = lower_stage(instrs, name, live_out)
    if ssa is None:
        return None
    lines: List[str] = [
        f"def _{name}(H, registers, E, rows, acc=None):",
        "    _n = rows.shape[0]",
    ]
    for temp in ssa.temps_in:
        lines.append(f"    {ssa.temp_vars[temp]} = E[{temp!r}][rows]")
    for stmt in ssa.stmts:
        _print(stmt, lines)
    for temp in ssa.temps_out:
        lines.append(f"    E[{temp!r}][rows] = {ssa.temp_vars[temp]}")

    source = "\n".join(lines)
    return VectorKernel(
        fn=_exec(source, name, f"_{name}"),
        fields_read=frozenset(ssa.fields_read),
        fields_written=frozenset(ssa.fields_written),
        temps_in=ssa.temps_in,
        temps_out=ssa.temps_out,
        stateful=tuple(i for i in instrs if i.is_stateful),
        source=source,
    )


@dataclass(frozen=True)
class ScanKernel:
    """A scan-shaped stage (:func:`~repro.compiler.lower.scan_form`)
    printed as two functions, each None when it would do nothing:

    * ``coef(H, E, rows)`` returns ``(a, b, access, index)`` over the
      rows, running only the row-only statements those need;
    * ``publish(H, E, rows, x)`` runs the stage's publishing statements
      with its register loads reading ``x`` — the slot's value before
      each row — and stores nothing to the register.

    ``a``, ``b``, ``access`` and ``index`` are the operands themselves:
    an ``int`` where the analysis found a constant (what the engine
    skips work on), else the local ``coef`` returns; ``index`` is None
    when compiled without it.
    """

    coef: Optional[Callable]
    publish: Optional[Callable]
    a: Value
    b: Value
    access: Value
    index: Optional[Value]
    source: str


def _scan_source(
    ssa: StageSSA,
    fname: str,
    params: str,
    stmts: Sequence[SSAStmt],
    roots: Sequence,
    tail: List[str],
    column: Optional[str] = None,
) -> str:
    used = {r for r in roots if isinstance(r, str)}
    for s in stmts:
        used.update(a for a in s.args if isinstance(a, str))
        used.add(s.guard)
    lines = [f"def {fname}({params}):", "    _n = rows.shape[0]"]
    for temp in ssa.temps_in:
        if ssa.temp_vars[temp] in used:
            lines.append(f"    {ssa.temp_vars[temp]} = E[{temp!r}][rows]")
    for s in stmts:
        _print(s, lines, column)
    return "\n".join(lines + tail)


def compile_scan_stage(
    instrs: Sequence[TacInstr],
    reg: str,
    name: str = "stage",
    live_out: Optional[Set[str]] = None,
    with_index: bool = True,
) -> Optional[ScanKernel]:
    """Compile one stage as a :class:`ScanKernel` in register ``reg``;
    None unless it is scan-shaped. ``with_index=False`` leaves the index
    to the caller (a wave plan's Phase A has already resolved it);
    ``live_out`` as in :func:`~repro.compiler.lower.lower_stage`."""
    ssa = lower_stage(instrs, name, live_out)
    form = scan_form(ssa, reg) if ssa is not None else None
    if form is None:
        return None
    index = form.index if with_index else None
    roots = (form.a, form.b, form.access, index)
    coef = publish = None
    sources = []
    if any(isinstance(r, str) for r in roots):
        text = ", ".join(repr(r) if not isinstance(r, str) else r for r in roots)
        sources.append(
            _scan_source(
                ssa, f"_{name}_coef", "H, E, rows",
                live_stmts(form.row, roots), roots, [f"    return {text}"],
            )
        )
        coef = _exec(sources[-1], name, f"_{name}_coef")
    if form.publish:
        outs = [ssa.temp_vars[t] for t in ssa.temps_out]
        sources.append(
            _scan_source(
                ssa, f"_{name}_publish", "H, E, rows, _x", form.publish, outs,
                [f"    E[{t!r}][rows] = {v}" for t, v in zip(ssa.temps_out, outs)],
                column="_x",
            )
        )
        publish = _exec(sources[-1], name, f"_{name}_publish")
    return ScanKernel(
        coef=coef,
        publish=publish,
        a=form.a,
        b=form.b,
        access=form.access,
        index=index,
        source="\n\n".join(sources),
    )


def vector_builtin(name: str) -> Callable:
    """Builtin ``name`` as a function of ``int64`` columns (or ints)
    returning its result column: :func:`~repro.compiler.lower.lower_call`'s
    statements, printed like any stage's."""
    params = [f"a{i}" for i in range(BUILTINS[name].arity)]
    lines = [f"def _{name}({', '.join(params)}):"]
    for stmt in lower_call(name, params, "_out"):
        _print(stmt, lines)
    lines.append("    return _out")
    return _exec("\n".join(lines), name, f"_{name}")
