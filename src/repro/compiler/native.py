"""Fused per-row kernels: the vector engine's serial executor.

:mod:`repro.compiler.vjit` executes a stage as a *sequence of NumPy
whole-array operations* — one pass over the batch per statement, with
the engine slicing batches into "waves" so same-index register chains
never share an invocation. This module prints the same lowered stage
(:func:`repro.compiler.lower.lower_stage`) as **one fused per-row
loop** —

    wasted = kernel.fn(rows, *columns)

— that executes the *entire* stage for one packet before moving to the
next. Rows are processed in exactly the order given, so a caller that
passes rows in global (tick, pipeline) service order gets the scalar
engines' serialized register semantics for free: no wave partitioning,
no per-statement batch traffic, and same-index read-modify-write chains
are correct by construction. It is what services every *serial* plan
(pinned or co-staged arrays, constant or in-stage indexes) that is not
scan-shaped (:func:`repro.compiler.lower.scan_form`).

The loop body is the scalar statement printer of
:mod:`repro.compiler.jit` over a different storage — one row of the
``int64`` columns instead of a packet's dicts — so the value semantics
(32-bit wrap after every arithmetic op, truncating div/mod with 0 on
division by zero, 5-bit shift counts, no state access on a false guard,
raw stores, indexes modulo the array size) are the scalar engines' by
construction, not by a second copy.

There is no flag. When Numba imports (``pip install ".[native]"`` is
the opt-in) the loop is ``@njit(nogil=True)``-compiled; otherwise the
same source runs as plain Python over the same columns. A builtin call
arrives lowered to plain ops, so every stage compiles alike.
:attr:`NativeKernel.jitted` says which happened; callers choose from it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

from .jit import ScalarPrinter
from .lower import StageSSA, lower_stage
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


@dataclass(frozen=True)
class NativeKernel:
    """One fused per-stage service kernel plus its column signature.

    ``fn(rows, *cols)`` expects ``cols`` in signature order: the header
    columns of :attr:`fields`, then the PHV columns of :attr:`temps`,
    then the register arrays of :attr:`regs` — all ``int64`` NumPy
    arrays. With :attr:`track_reg` set the call is
    ``fn(rows, lane, *cols)``: ``lane`` is a ``bool[len(rows)]`` the
    kernel sets at every position whose row executed no access on that
    array (a wasted slot). Returns the number of wasted slots (always 0
    when tracking is off).
    """

    fn: Callable
    fields: Tuple[str, ...]
    temps: Tuple[str, ...]
    regs: Tuple[str, ...]
    track_reg: Optional[str]
    jitted: bool
    source: str


class _RowPrinter(ScalarPrinter):
    """Storage: row ``_r`` of the engine's columns. Column parameters
    get positional names, so identifiers stay valid whatever the field
    and register names are."""

    depth = 2

    def __init__(self, ssa: StageSSA, track_reg: Optional[str]):
        super().__init__()
        self.track_reg = track_reg
        self.fields = tuple(
            sorted(set(ssa.fields_read) | set(ssa.fields_written))
        )
        self.temps = tuple(
            ssa.temps_in
            + tuple(t for t in ssa.temps_out if t not in ssa.temps_in)
        )
        self.field_col = {f: f"hf{i}" for i, f in enumerate(self.fields)}
        self.temp_col = {t: f"et{i}" for i, t in enumerate(self.temps)}
        self.reg_col = {r: f"rg{i}" for i, r in enumerate(ssa.regs)}
        self.params = (
            ["rows"]
            + (["lane"] if track_reg is not None else [])
            + list(self.field_col.values())
            + list(self.temp_col.values())
            + list(self.reg_col.values())
        )

    def field_load(self, field):
        return f"{self.field_col[field]}[_r]"

    def field_store(self, field, value):
        return f"{self.field_col[field]}[_r] = {value}"

    def _access(self, reg: str, access: str) -> List[str]:
        return [access] + (["_hit = 1"] if reg == self.track_reg else [])

    def reg_load(self, dest, reg, idx):
        arr = self.reg_col[reg]
        return self._access(reg, f"{dest} = {arr}[({idx}) % {arr}.shape[0]]")

    def reg_store(self, reg, idx, value):
        arr = self.reg_col[reg]
        return self._access(reg, f"{arr}[({idx}) % {arr}.shape[0]] = {value}")


def compile_native_stage(
    instrs: Sequence[TacInstr],
    name: str = "stage",
    track_reg: Optional[str] = None,
    force_python: bool = False,
    live_out: Optional[Set[str]] = None,
) -> Optional[NativeKernel]:
    """Compile one stage to a fused per-row kernel; None for empty input.

    When Numba is importable the loop is ``@njit``-compiled;
    ``force_python=True`` skips that — the plain-Python kernel every
    platform without Numba gets, reachable for tests where Numba is
    installed. ``track_reg`` turns on wasted-slot counting and the
    per-position ``lane`` for one register array (conservative
    phantoms). ``live_out`` as in
    :func:`~repro.compiler.lower.lower_stage`.
    """
    ssa = lower_stage(instrs, name, live_out)
    if ssa is None:
        return None
    fname = f"_n{name}"
    pr = _RowPrinter(ssa, track_reg)
    pr.lines = [
        f"def {fname}({', '.join(pr.params)}):",
        "    _wasted = 0",
        "    for _k in range(rows.shape[0]):",
    ]
    pr.emit("_r = rows[_k]")
    if track_reg is not None:
        pr.emit("_hit = 0")
    for t in ssa.temps_in:
        pr.emit(f"{ssa.temp_vars[t]} = {pr.temp_col[t]}[_r]")
    for s in ssa.stmts:
        pr.stmt(s)
    for t in ssa.temps_out:
        pr.emit(f"{pr.temp_col[t]}[_r] = {ssa.temp_vars[t]}")
    if track_reg is not None:
        pr.emit("if _hit == 0:")
        pr.emit("_wasted += 1", 1)
        pr.emit("lane[_k] = True", 1)
    source = "\n".join(pr.lines + ["    return _wasted"])
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
        fields=pr.fields,
        temps=pr.temps,
        regs=ssa.regs,
        track_reg=track_reg,
        jitted=jitted,
        source=source,
    )
