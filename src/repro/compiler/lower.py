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
enters the IR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ..errors import CompilerError
from .tac import Const, OpKind, TacInstr, Temp

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
    * ``call``         — ``dest = wrap(builtin op(*args))``
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

    def render(self) -> str:
        """Human-readable one-line form (tests and debugging)."""
        g = f" if {self.guard}" if self.guard else ""
        if self.kind == "field_load":
            return f"{self.dest} = load p.{self.field}"
        if self.kind == "field_store":
            return f"p.{self.field} = {self.args[0]}{g}"
        if self.kind == "const":
            return f"{self.dest} = {self.args[0]}"
        if self.kind == "unary":
            return f"{self.dest} = {self.op} {self.args[0]}"
        if self.kind == "binary":
            return f"{self.dest} = {self.args[0]} {self.op} {self.args[1]}"
        if self.kind == "call":
            joined = ", ".join(str(a) for a in self.args)
            return f"{self.dest} = {self.op}({joined})"
        if self.kind == "select":
            a, b, c = self.args
            return f"{self.dest} = {a} ? {b} : {c}"
        if self.kind == "reg_load":
            return f"{self.dest} = {self.reg}[{self.args[0]}]{g}"
        if self.kind == "reg_store":
            return f"{self.reg}[{self.args[0]}] = {self.args[1]}{g}"
        raise AssertionError(self.kind)


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
    #: True when the stage contains a ``call`` statement (builtins are
    #: arbitrary Python, so such a stage is never ``@njit``-compiled)
    has_call: bool = False


def _value(op, names: Dict[Temp, str]) -> Value:
    if isinstance(op, Const):
        return op.value
    return names[op]


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
    has_call = False

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
            has_call = True
            stmts.append(
                SSAStmt(
                    "call",
                    dest=var(instr.dest),
                    op=instr.op,
                    args=tuple(_value(a, names) for a in instr.args),
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
        has_call=has_call,
    )
