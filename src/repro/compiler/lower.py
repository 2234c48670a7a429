"""The one lowering: a stage's TAC as flat SSA statements.

Every code generator in the repo wants a stage as a flat list of
*statements over named scalar values* — no Temp objects, no operand
dispatch, every constant inlined — so it can walk the list once and
print one line (or a short guarded block) per statement. This is the
Taichi ``lower_ast`` idiom: lower once, eliminate the expression tree,
and leave only ``binary/unary(binary/unary)`` statements for simple
visitors downstream. :func:`lower_stage` is the only code that walks
:class:`~repro.compiler.tac.TacInstr` lists to generate code; the three
printers consume its :class:`StageSSA`:

* :mod:`repro.compiler.jit` — scalar Python over a packet's
  ``headers``/``env`` dicts (the scalar engines);
* :mod:`repro.compiler.native` — the same scalar statements over column
  rows, fused into one per-row loop (the vector engine's serial plans);
* :mod:`repro.compiler.vjit` — NumPy whole-batch statements (the vector
  engine's wave plans and stateless stages).

Our TAC (:mod:`repro.compiler.tac`) is already straight-line and
single-assignment, so lowering is mostly *resolution*: map every
:class:`~repro.compiler.tac.Temp` to a stable local name in first-use
order (``v0, v1, ...``), classify which temps are stage inputs (defined
by an earlier stage, loaded from the PHV) versus stage outputs
(published back to the PHV), and annotate each statement with
everything its printer needs — the register array for state accesses,
the header field for loads/stores, the guard variable for predicated
execution. Constants are read raw, as the TAC evaluator reads them:
:mod:`repro.compiler.preprocess` wraps a literal to 32 bits where it
enters the IR. A builtin call is the one expansion: :func:`lower_call`
emits its ``binary``/``select`` ops, so no printer knows builtins exist.

One analysis reads the lowered form back: :func:`scan_form` decides
whether a plan stage's register update is a read-add-write or a
predicated write (``x = wrap(a*x + b)`` with row-only ``a`` and ``b``),
which the vector engine then runs as a prefix sum per register slot.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..domino.builtins import BUILTINS
from ..errors import CompilerError
from .tac import Const, OpKind, TacInstr, Temp, _to_signed32

#: Operand of a lowered statement: a local variable name or an inlined
#: integer constant.
Value = Union[str, int]


@dataclass(frozen=True)
class SSAStmt:
    """One flattened statement.

    ``kind`` is one of:

    * ``field_load``   — ``dest = wrap(H[field][row])``
    * ``field_store``  — ``H[field][row] = args[0]``            [guard]
    * ``const``        — ``dest = args[0]``
    * ``unary``        — ``dest = op args[0]``
    * ``binary``       — ``dest = args[0] op args[1]``
    * ``select``       — ``dest = args[0] ? args[1] : args[2]``
    * ``reg_load``     — ``dest = reg[args[0] mod size]``       [guard]
    * ``reg_store``    — ``reg[args[0] mod size] = args[1]``    [guard]

    A ``guard`` names a 0/1 local; guarded register statements perform
    *no state access at all* when it is 0 (a guarded ``reg_load``
    defines ``dest = 0``), exactly like the TAC evaluator.
    """

    kind: str
    dest: Optional[str] = None
    op: str = ""
    args: Tuple[Value, ...] = ()
    guard: Optional[str] = None
    reg: Optional[str] = None
    field: Optional[str] = None

    def operands(self) -> List[str]:
        """``args`` as source text: a constant inlined, a local by name
        — the one operand rule every printer shares."""
        return [repr(a) if isinstance(a, int) else a for a in self.args]


@dataclass
class StageSSA:
    """One stage, flattened: the unit every printer consumes."""

    name: str
    stmts: List[SSAStmt] = field(default_factory=list)
    #: header fields in first-access order — read and written sets
    #: drive the kernels' column signatures
    fields_read: Tuple[str, ...] = ()
    fields_written: Tuple[str, ...] = ()
    #: PHV temps loaded before the stage (first-use order) / published
    #: after it (sorted by name; the live ones only, given ``live_out``)
    temps_in: Tuple[str, ...] = ()
    temps_out: Tuple[str, ...] = ()
    #: register arrays touched, sorted
    regs: Tuple[str, ...] = ()
    #: local-variable name of each loaded PHV temp / published temp
    temp_vars: Dict[str, str] = field(default_factory=dict)


def _value(op, names: Dict[Temp, str]) -> Value:
    if isinstance(op, Const):
        return op.value
    return names[op]


def lower_call(name: str, args: Sequence[Value], dest: str) -> List[SSAStmt]:
    """Builtin ``name`` applied to ``args`` as the plain statements its
    :class:`~repro.domino.builtins.Builtin` op list names. Op ``k``
    defines the local ``{dest}_{k}``; the last op defines ``dest``."""
    ops = BUILTINS[name].ops
    local: Dict[str, Value] = {f"x{i}": a for i, a in enumerate(args)}
    stmts = []
    for k, (op, *operands) in enumerate(ops):
        vals = tuple(local[o] if isinstance(o, str) else o for o in operands)
        local[f"t{k}"] = target = dest if k == len(ops) - 1 else f"{dest}_{k}"
        kind, op = ("select", "") if op == "?" else ("binary", op)
        stmts.append(SSAStmt(kind, dest=target, op=op, args=vals))
    return stmts


def cross_stage_temps(
    stages: Sequence[Sequence[TacInstr]], also: Sequence = ()
) -> Set[str]:
    """Names of the temps that must travel in the PHV: those a stage
    uses before defining (TAC is single-assignment, so an earlier stage
    defined them) plus the :class:`Temp` operands in ``also`` that code
    outside the stages reads. Any other temp dies with its stage."""
    live = {op.name for op in also if isinstance(op, Temp)}
    for instrs in stages:
        defined: Set[Temp] = set()
        for instr in instrs:
            live.update(t.name for t in instr.uses() if t not in defined)
            if instr.dest is not None:
                defined.add(instr.dest)
    return live


def lower_stage(
    instrs: Sequence[TacInstr],
    name: str = "stage",
    live_out: Optional[Set[str]] = None,
) -> Optional[StageSSA]:
    """Flatten one stage's TAC into a :class:`StageSSA`; None if empty.

    ``live_out`` (a program's :func:`cross_stage_temps`) limits
    ``temps_out`` to temps read after the stage, so the column printers
    neither store nor allocate dead ones; None publishes them all.

    Deterministic: the same instruction list always lowers to the same
    statement list and the same variable names, so emitted kernels (and
    their compilation caches) are stable across runs.
    """
    if not instrs:
        return None
    names: Dict[Temp, str] = {}
    defined: Set[Temp] = set()
    used_before_def: List[Temp] = []
    fields_read: List[str] = []
    fields_written: List[str] = []
    regs: Set[str] = set()

    def var(temp: Temp) -> str:
        got = names.get(temp)
        if got is None:
            got = f"v{len(names)}"
            names[temp] = got
        return got

    # Pass 1: discover stage inputs (temps used before any definition)
    # in first-use order.
    for instr in instrs:
        for temp in instr.uses():
            if temp not in defined and temp not in used_before_def:
                used_before_def.append(temp)
        dest = instr.defines()
        if dest is not None:
            defined.add(dest)
    for temp in used_before_def:
        var(temp)  # inputs claim the first variable names

    stmts: List[SSAStmt] = []
    for instr in instrs:
        kind = instr.kind
        guard = names[instr.guard] if instr.guard is not None else None
        if kind is OpKind.READ_FIELD:
            if instr.field_name not in fields_read:
                fields_read.append(instr.field_name)
            stmts.append(
                SSAStmt(
                    "field_load", dest=var(instr.dest), field=instr.field_name
                )
            )
        elif kind is OpKind.WRITE_FIELD:
            if instr.field_name not in fields_written:
                fields_written.append(instr.field_name)
            stmts.append(
                SSAStmt(
                    "field_store",
                    field=instr.field_name,
                    args=(_value(instr.args[0], names),),
                    guard=guard,
                )
            )
        elif kind is OpKind.CONST:
            if not isinstance(instr.args[0], Const):
                raise CompilerError("lower: CONST with non-constant operand")
            stmts.append(
                SSAStmt(
                    "const",
                    dest=var(instr.dest),
                    args=(instr.args[0].value,),
                )
            )
        elif kind is OpKind.UNARY:
            stmts.append(
                SSAStmt(
                    "unary",
                    dest=var(instr.dest),
                    op=instr.op,
                    args=(_value(instr.args[0], names),),
                )
            )
        elif kind is OpKind.BINARY:
            stmts.append(
                SSAStmt(
                    "binary",
                    dest=var(instr.dest),
                    op=instr.op,
                    args=(
                        _value(instr.args[0], names),
                        _value(instr.args[1], names),
                    ),
                )
            )
        elif kind is OpKind.CALL:
            stmts.extend(
                lower_call(
                    instr.op,
                    [_value(a, names) for a in instr.args],
                    var(instr.dest),
                )
            )
        elif kind is OpKind.SELECT:
            stmts.append(
                SSAStmt(
                    "select",
                    dest=var(instr.dest),
                    args=tuple(_value(a, names) for a in instr.args),
                )
            )
        elif kind is OpKind.REG_READ:
            regs.add(instr.reg)
            stmts.append(
                SSAStmt(
                    "reg_load",
                    dest=var(instr.dest),
                    reg=instr.reg,
                    args=(_value(instr.args[0], names),),
                    guard=guard,
                )
            )
        elif kind is OpKind.REG_WRITE:
            regs.add(instr.reg)
            stmts.append(
                SSAStmt(
                    "reg_store",
                    reg=instr.reg,
                    args=(
                        _value(instr.args[0], names),
                        _value(instr.args[1], names),
                    ),
                    guard=guard,
                )
            )
        else:
            raise CompilerError(f"lower: unknown instruction kind {kind}")

    temps_out = sorted(
        (t for t in defined if live_out is None or t.name in live_out),
        key=lambda t: t.name,
    )
    temp_vars = {t.name: names[t] for t in used_before_def}
    temp_vars.update({t.name: names[t] for t in temps_out})
    return StageSSA(
        name=name,
        stmts=stmts,
        fields_read=tuple(fields_read),
        fields_written=tuple(fields_written),
        temps_in=tuple(t.name for t in used_before_def),
        temps_out=tuple(t.name for t in temps_out),
        regs=tuple(sorted(regs)),
        temp_vars=temp_vars,
    )


def live_stmts(stmts: Sequence[SSAStmt], roots) -> List[SSAStmt]:
    """``stmts`` pruned to the ones the locals in ``roots`` and the
    field stores depend on, in order (constants in ``roots`` need
    nothing)."""
    need = {r for r in roots if isinstance(r, str)}
    kept = []
    for s in reversed(stmts):
        if s.kind == "field_store" or s.dest in need:
            kept.append(s)
            need.update(a for a in s.args if isinstance(a, str))
            if s.guard is not None:
                need.add(s.guard)
    kept.reverse()
    return kept


@dataclass(frozen=True)
class ScanForm:
    """A stage whose one store to its plan's register is
    ``wrap(a*x + b)``, ``x`` the slot's value before the row, with
    ``a`` in {0, 1} and ``a``, ``b``, ``index`` and ``access`` row
    values. Per slot, a chain of such rows is a prefix sum of ``b``
    restarted where ``a == 0``.

    Each operand is an inlined constant or a local that ``row`` — the
    stage's row-only statements plus the ones that build ``a``, ``b``
    and ``access``, in program order — defines (prune with
    :func:`live_stmts`). ``access`` is 1 where the row accesses the
    register at all (a guard held). ``publish`` is the stage without
    its store, pruned to what its field stores and published temps
    need; its loads of the register carry no index, to be read from a
    column of ``x``. It is empty when the stage publishes nothing.
    """

    a: Value
    b: Value
    index: Value
    access: Value
    row: Tuple[SSAStmt, ...]
    publish: Tuple[SSAStmt, ...]


def scan_form(ssa: StageSSA, reg: str) -> Optional[ScanForm]:
    """``ssa``'s :class:`ScanForm` in register ``reg``, or None.

    Abstract interpretation: a local is either a row value ``r``, read
    as ``(0, r)``, or ``(a, b)`` standing for ``a*x + b``. A load of
    ``reg`` is ``(1, 0)`` (``(g, 0)`` under guard ``g``); ``A + r``,
    ``r + A`` and ``A - r`` add to ``b``; ``select(r, A, B)`` selects
    both parts. The store under guard ``g`` leaves ``select(g, V,
    (1, 0))`` in the slot, and a stage that only loads leaves the
    identity ``(1, 0)``. Anything else that touches ``x`` — a compare,
    a product, a division, ``r - A``, an ``x``-dependent guard, index
    or select condition — and a second store, a load after the store,
    another register, or a field loaded after the stage stores it
    returns None."""
    affine: Dict[str, Tuple[Value, Value]] = {}
    consts: Dict[str, int] = {}
    selects: Dict[str, SSAStmt] = {}
    row: List[SSAStmt] = []
    names = (f"_k{i}" for i in itertools.count())
    index: Optional[Value] = None
    guards: List[Optional[str]] = []
    slot: Optional[Tuple[Value, Value]] = None
    stored_fields: Set[str] = set()

    def dep(v) -> bool:
        return isinstance(v, str) and v in affine

    def emit(kind: str, op: str, args: Tuple[Value, ...]) -> str:
        s = SSAStmt(kind, dest=next(names), op=op, args=args)
        row.append(s)
        if kind == "select":
            selects[s.dest] = s
        return s.dest

    def arith(op: str, p: Value, q: Value) -> Value:
        if isinstance(p, int) and isinstance(q, int):
            return _to_signed32(p + q if op == "+" else p - q)
        if q == 0:
            return p
        if op == "+" and p == 0:
            return q
        return emit("binary", op, (p, q))

    def pick(c: Value, p: Value, q: Value) -> Value:
        c = consts.get(c, c)
        if isinstance(c, int):
            return p if c != 0 else q
        # select(c, select(c, p1, p2), q) == select(c, p1, q), and so on.
        if p in selects and selects[p].args[0] == c:
            p = selects[p].args[1]
        if q in selects and selects[q].args[0] == c:
            q = selects[q].args[2]
        return p if p == q else emit("select", "", (c, p, q))

    def lift(v: Value) -> Tuple[Value, Value]:
        return affine[v] if dep(v) else (0, consts.get(v, v))

    for s in ssa.stmts:
        args = s.args
        if dep(s.guard):
            return None
        if s.kind in ("reg_load", "reg_store"):
            if s.reg != reg or dep(args[0]) or slot is not None:
                return None
            if index is None:
                index = args[0]
            elif args[0] != index:
                return None
            guards.append(s.guard)
            if s.kind == "reg_load":
                a = 1 if s.guard is None else pick(s.guard, 1, 0)
                affine[s.dest] = (a, 0)
            else:
                v = lift(args[1])
                slot = v
                if s.guard is not None:
                    slot = (pick(s.guard, v[0], 1), pick(s.guard, v[1], 0))
            continue
        if s.kind == "field_store":
            stored_fields.add(s.field)
            continue
        if not any(dep(v) for v in args):
            if s.kind == "field_load" and s.field in stored_fields:
                return None
            row.append(s)
            if s.kind == "const":
                consts[s.dest] = args[0]
        elif s.kind == "binary" and s.op in ("+", "-"):
            x, r = args
            if dep(r):
                if dep(x) or s.op == "-":
                    return None
                x, r = r, x
            a, b = affine[x]
            affine[s.dest] = (a, arith(s.op, b, consts.get(r, r)))
        elif s.kind == "select" and not dep(args[0]):
            (pa, pb), (qa, qb) = lift(args[1]), lift(args[2])
            affine[s.dest] = (pick(args[0], pa, qa), pick(args[0], pb, qb))
        else:
            return None
    if index is None:
        return None
    a, b = slot if slot is not None else (1, 0)
    access: Value = 1
    if None not in guards:
        access = guards[0]
        for g in guards[1:]:
            if g != access:
                access = emit("binary", "||", (access, g))
    outputs = [ssa.temp_vars[t] for t in ssa.temps_out]
    publish = live_stmts(
        [
            SSAStmt("reg_load", dest=s.dest, guard=s.guard, reg=reg)
            if s.kind == "reg_load"
            else s
            for s in ssa.stmts
            if s.kind != "reg_store"
        ],
        outputs,
    )
    return ScanForm(
        a=a,
        b=b,
        index=consts.get(index, index),
        access=access,
        row=tuple(row),
        publish=tuple(publish),
    )
