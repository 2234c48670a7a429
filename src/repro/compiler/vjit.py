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
Builtin calls (``hash2`` etc.) fall back to a per-row Python loop —
they are rare and arbitrary Python.

The caller is responsible for ordering: register read-modify-write
chains are only correct when no two rows in one invocation touch the
same register slot (the vector engine partitions batches into such
"waves"; see :mod:`repro.mp5.vector`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..domino.builtins import BUILTINS
from ..errors import CompilerError
from .jit import _COMPARISONS, _WRAPPED_BINOPS, _wrapped
from .lower import SSAStmt, lower_stage
from .tac import TacInstr, _to_signed32

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
    """``a - b * trunc(a / b)``, 0 on division by zero, wrapped."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    bb = np.where(b == 0, 1, b)
    q = np.abs(a) // np.abs(bb)
    q = np.where((a < 0) != (bb < 0), -q, q)
    r = a - bb * q
    return np.where(b == 0, 0, ((r + 2147483648) & 4294967295) - 2147483648)


def _callv(fn, args: Tuple, n: int) -> np.ndarray:
    """Per-row builtin call; args cast to Python ints so arbitrary-
    precision builtin arithmetic (hash mixing) cannot overflow int64."""
    cols = [np.broadcast_to(np.asarray(a, dtype=np.int64), (n,)) for a in args]
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        out[i] = _to_signed32(fn(*(int(c[i]) for c in cols)))
    return out


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


def _print(s: SSAStmt, lines: List[str]) -> None:
    """One lowered statement as NumPy whole-batch statements."""
    pad = "    "
    args = s.operands()
    if s.kind == "field_load":
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
    elif s.kind == "call":
        lines.append(
            f"{pad}{s.dest} = "
            f"_callv(_builtins[{s.op!r}], ({', '.join(args)},), _n)"
        )
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
    scope = {
        "_np": np,
        "_builtins": BUILTINS,
        "_truthy": _truthy,
        "_maskn": _maskn,
        "_divv": _divv,
        "_modv": _modv,
        "_callv": _callv,
        "_regset": _regset,
        "_acc_set": _acc_set,
        "_acc_or": _acc_or,
        "_i64": _i64,
    }
    exec(compile(source, f"<vjit:{name}:{next(_counter)}>", "exec"), scope)
    fn = scope[f"_{name}"]
    fn.__doc__ = source
    return VectorKernel(
        fn=fn,
        fields_read=frozenset(ssa.fields_read),
        fields_written=frozenset(ssa.fields_written),
        temps_in=ssa.temps_in,
        temps_out=ssa.temps_out,
        stateful=tuple(i for i in instrs if i.is_stateful),
        source=source,
    )
