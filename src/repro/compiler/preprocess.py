"""Preprocessing phase: lower a Domino AST into three-address code.

This mirrors the first phase of the Domino compiler workflow (Figure 5):
branches are flattened into predicated straight-line code, expressions
are decomposed into three-address instructions over SSA temporaries, and
register accesses are normalized into the *packet transaction* shape a
Banzai atom can execute:

* each register array is accessed at **one** index per packet (programs
  that use two different indexes for the same array are rejected, as in
  Domino);
* per array, the lowering emits a single guarded ``reg_read`` at the
  first access and a single guarded ``reg_write`` (carrying the final
  muxed value) at the end — the read-modify-write an atom performs
  atomically within one stage;
* the *access guard* is the disjunction of the guards of all syntactic
  accesses. When that disjunction cannot be placed before the read (a
  later branch introduces a new guard), the access conservatively becomes
  unconditional, matching MP5's "assume the predicate is true" fallback
  (§3.3).

Local value numbering makes structurally identical pure expressions share
one temporary, which is also how we detect that two accesses use the same
index expression.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..domino.ast_nodes import (
    Assign,
    BinaryExpr,
    CallExpr,
    Expr,
    If,
    IntLiteral,
    LocalDecl,
    LocalVar,
    PacketField,
    Program,
    RegisterRef,
    Stmt,
    TernaryExpr,
    UnaryExpr,
)
from ..errors import CompilerError
from .tac import (
    Const,
    OpKind,
    Operand,
    TacInstr,
    TacProgram,
    Temp,
    TempFactory,
    _to_signed32,
)


@dataclass
class _RegisterAccess:
    """Book-keeping for one register array during lowering."""

    name: str
    index: Operand
    read_instr: TacInstr
    read_position: int  # index into the instruction list
    version: Operand  # current in-transaction value of the slot
    guards: List[Optional[Temp]] = field(default_factory=list)
    wrote: bool = False


class Lowering:
    """Lowers one semantically checked :class:`Program` to TAC."""

    def __init__(self, program: Program):
        self.program = program
        self.temps = TempFactory()
        self.instrs: List[TacInstr] = []
        # Value numbering table for pure ops: key -> temp.
        self.value_table: Dict[tuple, Temp] = {}
        # Current operand for each named value.
        self.field_version: Dict[str, Operand] = {}
        self.local_version: Dict[str, Operand] = {}
        self.fields_loaded: Dict[str, Temp] = {}
        self.reg_access: Dict[str, _RegisterAccess] = {}
        # Position (in self.instrs) where each temp was defined, used to
        # decide whether a guard is available before a register read.
        self.def_position: Dict[Temp, int] = {}

    # ------------------------------------------------------------------
    # Emission helpers
    # ------------------------------------------------------------------

    def _emit(self, instr: TacInstr) -> None:
        if instr.dest is not None:
            self.def_position[instr.dest] = len(self.instrs)
        self.instrs.append(instr)

    def _pure(self, kind: OpKind, op: str, args: List[Operand], hint: str = "") -> Operand:
        """Emit a pure instruction with value numbering."""
        key = (kind, op, tuple(args))
        cached = self.value_table.get(key)
        if cached is not None:
            return cached
        # Constant folding for fully constant operands keeps the IR small
        # and makes index expressions like `0 % 4` come out as constants.
        if all(isinstance(a, Const) for a in args):
            folded = self._try_fold(kind, op, args)
            if folded is not None:
                return folded
        dest = self.temps.fresh(hint)
        self._emit(TacInstr(kind=kind, dest=dest, op=op, args=list(args)))
        self.value_table[key] = dest
        return dest

    def _try_fold(self, kind: OpKind, op: str, args: List[Operand]) -> Optional[Const]:
        from .tac import _BINARY_EVAL, _UNARY_EVAL  # local import: private tables

        values = [a.value for a in args]  # type: ignore[union-attr]
        if kind is OpKind.BINARY and op in _BINARY_EVAL:
            return Const(_BINARY_EVAL[op](values[0], values[1]))
        if kind is OpKind.UNARY and op in _UNARY_EVAL:
            return Const(_UNARY_EVAL[op](values[0]))
        if kind is OpKind.SELECT:
            return Const(values[1] if values[0] else values[2])
        return None

    def _binary(self, op: str, a: Operand, b: Operand, hint: str = "") -> Operand:
        return self._pure(OpKind.BINARY, op, [a, b], hint)

    def _select(self, g: Operand, a: Operand, b: Operand, hint: str = "") -> Operand:
        if a == b:
            return a
        return self._pure(OpKind.SELECT, "", [g, a, b], hint)

    def _not(self, a: Operand) -> Operand:
        return self._pure(OpKind.UNARY, "!", [a])

    def _and(self, a: Optional[Operand], b: Operand) -> Operand:
        if a is None:
            return b
        return self._binary("&&", a, b)

    def _as_temp(self, operand: Operand, hint: str = "") -> Temp:
        """Guards must be temps; wrap constants in a CONST instruction."""
        if isinstance(operand, Temp):
            return operand
        key = (OpKind.CONST, "", (operand,))
        cached = self.value_table.get(key)
        if cached is not None:
            return cached
        dest = self.temps.fresh(hint or "c")
        self._emit(TacInstr(kind=OpKind.CONST, dest=dest, args=[operand]))
        self.value_table[key] = dest
        return dest

    # ------------------------------------------------------------------
    # Expressions
    # ------------------------------------------------------------------

    def lower_expr(self, expr: Expr, guard: Optional[Temp]) -> Operand:
        """Lower one expression; returns the operand holding its value."""
        if isinstance(expr, IntLiteral):
            # Every value is a 32-bit two's-complement int
            # (docs/language.md); a literal is wrapped once, here, where
            # it enters the IR, so every consumer of a Const reads it raw.
            return Const(_to_signed32(expr.value))
        if isinstance(expr, PacketField):
            return self._field_value(expr.field_name)
        if isinstance(expr, LocalVar):
            try:
                return self.local_version[expr.name]
            except KeyError:
                raise CompilerError(
                    f"local {expr.name!r} used before assignment"
                ) from None
        if isinstance(expr, RegisterRef):
            return self._register_read(expr, guard)
        if isinstance(expr, UnaryExpr):
            operand = self.lower_expr(expr.operand, guard)
            return self._pure(OpKind.UNARY, expr.op, [operand])
        if isinstance(expr, BinaryExpr):
            left = self.lower_expr(expr.left, guard)
            right = self.lower_expr(expr.right, guard)
            return self._binary(expr.op, left, right)
        if isinstance(expr, TernaryExpr):
            return self._lower_ternary(expr, guard)
        if isinstance(expr, CallExpr):
            args = [self.lower_expr(a, guard) for a in expr.args]
            return self._pure(OpKind.CALL, expr.func, args)
        raise CompilerError(f"cannot lower expression {expr!r}")

    def _lower_ternary(self, expr: TernaryExpr, guard: Optional[Temp]) -> Operand:
        cond = self.lower_expr(expr.condition, guard)
        cond_temp = self._as_temp(cond, "pred")
        then_guard = self._as_temp(self._and(guard, cond_temp))
        else_guard = self._as_temp(self._and(guard, self._not(cond_temp)))
        if_true = self.lower_expr(expr.if_true, then_guard)
        if_false = self.lower_expr(expr.if_false, else_guard)
        return self._select(cond_temp, if_true, if_false, "mux")

    def _field_value(self, name: str) -> Operand:
        current = self.field_version.get(name)
        if current is not None:
            return current
        loaded = self.fields_loaded.get(name)
        if loaded is None:
            loaded = self.temps.fresh(f"f_{name}")
            self._emit(TacInstr(kind=OpKind.READ_FIELD, dest=loaded, field_name=name))
            self.fields_loaded[name] = loaded
        self.field_version[name] = loaded
        return loaded

    # ------------------------------------------------------------------
    # Register transactions
    # ------------------------------------------------------------------

    def _register_state(
        self, ref: RegisterRef, guard: Optional[Temp]
    ) -> _RegisterAccess:
        # Index expressions are evaluated unconditionally: they are pure
        # w.r.t. packet processing (any register reads they contain are
        # themselves separate transactions) and are hoisted to the
        # address-resolution stage by the MP5 transformer.
        index = self.lower_expr(ref.index, None)
        state = self.reg_access.get(ref.register)
        if state is None:
            read_dest = self.temps.fresh(f"r_{ref.register}")
            read_instr = TacInstr(
                kind=OpKind.REG_READ,
                dest=read_dest,
                reg=ref.register,
                args=[index],
            )
            position = len(self.instrs)
            self._emit(read_instr)
            state = _RegisterAccess(
                name=ref.register,
                index=index,
                read_instr=read_instr,
                read_position=position,
                version=read_dest,
            )
            self.reg_access[ref.register] = state
        elif state.index != index:
            raise CompilerError(
                f"register array {ref.register!r} accessed with two different "
                f"index expressions ({state.index} vs {index}); Banzai atoms "
                f"support a single index per array per packet"
            )
        state.guards.append(guard)
        return state

    def _register_read(self, ref: RegisterRef, guard: Optional[Temp]) -> Operand:
        state = self._register_state(ref, guard)
        return state.version

    def register_write(
        self, ref: RegisterRef, value: Operand, guard: Optional[Temp]
    ) -> None:
        state = self._register_state(ref, guard)
        if guard is None:
            state.version = value
        else:
            state.version = self._select(guard, value, state.version, "regmux")
        state.wrote = True

    # ------------------------------------------------------------------
    # Statements
    # ------------------------------------------------------------------

    def lower_stmt(self, stmt: Stmt, guard: Optional[Temp]) -> None:
        if isinstance(stmt, LocalDecl):
            self.local_version[stmt.name] = self.lower_expr(stmt.value, guard)
        elif isinstance(stmt, Assign):
            self._lower_assign(stmt, guard)
        elif isinstance(stmt, If):
            self._lower_if(stmt, guard)
        else:  # pragma: no cover
            raise CompilerError(f"cannot lower statement {stmt!r}")

    def _lower_assign(self, stmt: Assign, guard: Optional[Temp]) -> None:
        value = self.lower_expr(stmt.value, guard)
        target = stmt.target
        if isinstance(target, PacketField):
            if guard is None:
                self.field_version[target.field_name] = value
            else:
                old = self._field_value(target.field_name)
                self.field_version[target.field_name] = self._select(
                    guard, value, old, f"f_{target.field_name}"
                )
        elif isinstance(target, LocalVar):
            if guard is None:
                self.local_version[target.name] = value
            else:
                old = self.local_version.get(target.name)
                if old is None:
                    raise CompilerError(
                        f"local {target.name!r} conditionally assigned before "
                        f"any unconditional assignment"
                    )
                self.local_version[target.name] = self._select(guard, value, old)
        elif isinstance(target, RegisterRef):
            self.register_write(target, value, guard)
        else:  # pragma: no cover
            raise CompilerError(f"bad assignment target {target!r}")

    def _lower_if(self, stmt: If, guard: Optional[Temp]) -> None:
        cond = self.lower_expr(stmt.condition, guard)
        cond_temp = self._as_temp(cond, "pred")
        then_guard = self._as_temp(self._and(guard, cond_temp))
        for inner in stmt.then_body:
            self.lower_stmt(inner, then_guard)
        if stmt.else_body:
            else_guard = self._as_temp(self._and(guard, self._not(cond_temp)))
            for inner in stmt.else_body:
                self.lower_stmt(inner, else_guard)

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------

    def finalize(self) -> TacProgram:
        # Emit the final write-back for every register array that was
        # written, and resolve each array's access guard.
        """Emit register/field write-backs and return the validated TAC."""
        for state in self.reg_access.values():
            access_guard = self._resolve_access_guard(state)
            state.read_instr.guard = access_guard
            if state.wrote:
                self._emit(
                    TacInstr(
                        kind=OpKind.REG_WRITE,
                        reg=state.name,
                        args=[state.index, state.version],
                        guard=access_guard,
                    )
                )
        # Emit final packet-field write-backs.
        for name in self.program.packet_struct.fields:
            version = self.field_version.get(name)
            if version is None or version == self.fields_loaded.get(name):
                continue  # never written, or written back to its own load
            self._emit(
                TacInstr(kind=OpKind.WRITE_FIELD, field_name=name, args=[version])
            )

        # Initialisers enter the register store the way literals enter
        # the IR: wrapped to 32 bits, once.
        registers = {
            reg.name: (reg.size, tuple(_to_signed32(v) for v in reg.initial))
            for reg in self.program.registers
        }
        tac = TacProgram(
            instrs=self.instrs,
            packet_fields=list(self.program.packet_struct.fields),
            registers=registers,
            source_name=self.program.source_name,
        )
        tac.validate()
        return tac

    def _resolve_access_guard(self, state: _RegisterAccess) -> Optional[Temp]:
        """Disjunction of all access guards, or None for unconditional.

        The guard temps must already be defined before the read
        instruction; otherwise we conservatively make the transaction
        unconditional (the atom reads and writes back the old value when
        no syntactic access fired), which preserves functional behaviour
        while over-approximating the access pattern — the same
        conservatism MP5 applies to unresolvable predicates.
        """
        if any(g is None for g in state.guards):
            return None
        unique = []
        for g in state.guards:
            if g not in unique:
                unique.append(g)
        if any(self.def_position[g] > state.read_position for g in unique):
            return None
        combined: Operand = unique[0]
        for g in unique[1:]:
            key = (OpKind.BINARY, "||", (combined, g))
            cached = self.value_table.get(key)
            if cached is not None:
                combined = cached
                continue
            dest = self.temps.fresh("ag")
            instr = TacInstr(
                kind=OpKind.BINARY, dest=dest, op="||", args=[combined, g]
            )
            # Insert the OR immediately before the read so SSA order holds.
            self.instrs.insert(state.read_position, instr)
            self._reindex_positions()
            self.value_table[key] = dest
            combined = dest
        return self._as_temp_before_read(combined, state)

    def _as_temp_before_read(self, operand: Operand, state: _RegisterAccess) -> Temp:
        if isinstance(operand, Temp):
            return operand
        dest = self.temps.fresh("agc")
        self.instrs.insert(
            state.read_position, TacInstr(kind=OpKind.CONST, dest=dest, args=[operand])
        )
        self._reindex_positions()
        return dest

    def _reindex_positions(self) -> None:
        """Recompute def positions and per-array read positions."""
        self.def_position = {}
        positions: Dict[int, int] = {}
        for position, instr in enumerate(self.instrs):
            if instr.dest is not None:
                self.def_position[instr.dest] = position
            positions[id(instr)] = position
        for reg_state in self.reg_access.values():
            reg_state.read_position = positions[id(reg_state.read_instr)]


def preprocess(program: Program) -> TacProgram:
    """Lower a semantically checked Domino program to three-address code."""
    lowering = Lowering(program)
    for stmt in program.body:
        lowering.lower_stmt(stmt, None)
    return lowering.finalize()
