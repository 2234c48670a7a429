"""Semantic analysis for parsed Domino programs.

Responsibilities:

* disambiguate bare identifiers into local variables vs. scalar registers
  (the parser cannot tell them apart), rewriting the AST in place;
* verify every name is declared before use, packet fields exist in the
  struct, and locals are not redeclared or shadowed by registers;
* verify single-assignment discipline for locals (Domino locals are
  immutable bindings, matching the three-address-code lowering);
* collect, per register array, whether any *index* expression reads
  register state — the property §3.3 of the paper uses to decide whether
  preemptive address resolution is possible for that array.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set

from ..errors import DominoSemanticError
from .ast_nodes import (
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
from .builtins import BUILTINS


@dataclass
class SemanticInfo:
    """Facts gathered by analysis, consumed by the compiler."""

    packet_fields: Set[str] = field(default_factory=set)
    local_names: Set[str] = field(default_factory=set)
    # Register arrays whose index expression (somewhere in the program)
    # itself reads register state -> cannot be preemptively resolved.
    stateful_index_registers: Set[str] = field(default_factory=set)
    # Registers read or written anywhere in the program.
    registers_used: Set[str] = field(default_factory=set)
    # Packet fields written by the program (for equivalence checking).
    fields_written: Set[str] = field(default_factory=set)


class SemanticAnalyzer:
    """Checks a parsed :class:`Program` and normalizes its AST."""

    def __init__(self, program: Program):
        self.program = program
        self.register_names: Set[str] = set(program.register_names)
        self.packet_fields: Set[str] = set(program.packet_struct.fields)
        self.info = SemanticInfo(packet_fields=set(self.packet_fields))

    def analyze(self) -> SemanticInfo:
        """Check the whole program; returns the gathered facts."""
        if len(self.register_names) != len(self.program.registers):
            names = [r.name for r in self.program.registers]
            dupes = {n for n in names if names.count(n) > 1}
            raise DominoSemanticError(f"duplicate register declaration: {sorted(dupes)}")
        overlap = self.register_names & self.packet_fields
        # Register names and packet field names live in different syntactic
        # namespaces (p.f vs f) so overlap is legal; nothing to reject.
        del overlap
        declared_locals: Set[str] = set()
        self._check_block(self.program.body, declared_locals)
        self.info.local_names = declared_locals
        return self.info

    # ------------------------------------------------------------------
    # Statement checking
    # ------------------------------------------------------------------

    def _check_block(self, body: List[Stmt], locals_in_scope: Set[str]) -> None:
        for stmt in body:
            self._check_stmt(stmt, locals_in_scope)

    def _check_stmt(self, stmt: Stmt, locals_in_scope: Set[str]) -> None:
        if isinstance(stmt, LocalDecl):
            if stmt.name in locals_in_scope:
                raise DominoSemanticError(
                    f"local {stmt.name!r} redeclared", stmt.line, stmt.column
                )
            if stmt.name in self.register_names:
                raise DominoSemanticError(
                    f"local {stmt.name!r} shadows a register", stmt.line, stmt.column
                )
            stmt.value = self._check_expr(stmt.value, locals_in_scope)
            locals_in_scope.add(stmt.name)
        elif isinstance(stmt, Assign):
            stmt.target = self._check_lvalue(stmt.target, locals_in_scope)
            stmt.value = self._check_expr(stmt.value, locals_in_scope)
            if isinstance(stmt.target, PacketField):
                self.info.fields_written.add(stmt.target.field_name)
        elif isinstance(stmt, If):
            stmt.condition = self._check_expr(stmt.condition, locals_in_scope)
            # Locals declared inside a branch stay visible afterwards only
            # if declared in both branches; we keep it simple and forbid
            # branch-local declarations entirely, matching Domino's
            # flattening into predicated straight-line code.
            self._forbid_local_decls(stmt.then_body)
            self._forbid_local_decls(stmt.else_body)
            self._check_block(stmt.then_body, locals_in_scope)
            self._check_block(stmt.else_body, locals_in_scope)
        else:  # pragma: no cover - parser only produces the above
            raise DominoSemanticError(f"unknown statement {stmt!r}")

    def _forbid_local_decls(self, body: List[Stmt]) -> None:
        for stmt in body:
            if isinstance(stmt, LocalDecl):
                raise DominoSemanticError(
                    "local declarations are not allowed inside if branches "
                    "(declare before the if)",
                    stmt.line,
                    stmt.column,
                )

    def _check_lvalue(self, target: Expr, locals_in_scope: Set[str]) -> Expr:
        if isinstance(target, PacketField):
            if target.field_name not in self.packet_fields:
                raise DominoSemanticError(
                    f"unknown packet field {target.field_name!r}",
                    target.line,
                    target.column,
                )
            return target
        if isinstance(target, RegisterRef):
            return self._check_register_ref(target, locals_in_scope)
        if isinstance(target, LocalVar):
            if target.name in self.register_names:
                # Bare scalar register write: count = count + 1.
                reg = self.program.register_named(target.name)
                if not reg.is_scalar:
                    raise DominoSemanticError(
                        f"register array {target.name!r} written without index",
                        target.line,
                        target.column,
                    )
                self.info.registers_used.add(target.name)
                return RegisterRef(
                    register=target.name,
                    index=IntLiteral(value=0),
                    line=target.line,
                    column=target.column,
                )
            if target.name not in locals_in_scope:
                raise DominoSemanticError(
                    f"assignment to undeclared name {target.name!r}",
                    target.line,
                    target.column,
                )
            return target
        raise DominoSemanticError(f"invalid assignment target {target}")

    # ------------------------------------------------------------------
    # Expression checking / normalization
    # ------------------------------------------------------------------

    def _check_expr(self, expr: Expr, locals_in_scope: Set[str]) -> Expr:
        if isinstance(expr, IntLiteral):
            return expr
        if isinstance(expr, PacketField):
            if expr.field_name not in self.packet_fields:
                raise DominoSemanticError(
                    f"unknown packet field {expr.field_name!r}", expr.line, expr.column
                )
            return expr
        if isinstance(expr, LocalVar):
            if expr.name in self.register_names:
                reg = self.program.register_named(expr.name)
                if not reg.is_scalar:
                    raise DominoSemanticError(
                        f"register array {expr.name!r} read without index",
                        expr.line,
                        expr.column,
                    )
                self.info.registers_used.add(expr.name)
                return RegisterRef(
                    register=expr.name,
                    index=IntLiteral(value=0),
                    line=expr.line,
                    column=expr.column,
                )
            if expr.name not in locals_in_scope:
                raise DominoSemanticError(
                    f"use of undeclared name {expr.name!r}", expr.line, expr.column
                )
            return expr
        if isinstance(expr, RegisterRef):
            return self._check_register_ref(expr, locals_in_scope)
        if isinstance(expr, UnaryExpr):
            expr.operand = self._check_expr(expr.operand, locals_in_scope)
            return expr
        if isinstance(expr, BinaryExpr):
            expr.left = self._check_expr(expr.left, locals_in_scope)
            expr.right = self._check_expr(expr.right, locals_in_scope)
            if expr.op in ("/", "%") and isinstance(expr.right, IntLiteral):
                if expr.right.value == 0:
                    raise DominoSemanticError(
                        "division by constant zero", expr.line, expr.column
                    )
            return expr
        if isinstance(expr, TernaryExpr):
            expr.condition = self._check_expr(expr.condition, locals_in_scope)
            expr.if_true = self._check_expr(expr.if_true, locals_in_scope)
            expr.if_false = self._check_expr(expr.if_false, locals_in_scope)
            return expr
        if isinstance(expr, CallExpr):
            builtin = BUILTINS.get(expr.func)
            if builtin is None:
                raise DominoSemanticError(
                    f"unknown builtin {expr.func!r}", expr.line, expr.column
                )
            if len(expr.args) != builtin.arity:
                raise DominoSemanticError(
                    f"builtin {expr.func!r} takes {builtin.arity} arguments, got "
                    f"{len(expr.args)}",
                    expr.line,
                    expr.column,
                )
            expr.args = [self._check_expr(a, locals_in_scope) for a in expr.args]
            return expr
        raise DominoSemanticError(f"unknown expression {expr!r}")

    def _check_register_ref(self, ref: RegisterRef, locals_in_scope: Set[str]) -> Expr:
        if ref.register not in self.register_names:
            raise DominoSemanticError(
                f"unknown register {ref.register!r}", ref.line, ref.column
            )
        self.info.registers_used.add(ref.register)
        if ref.index is None:
            ref.index = IntLiteral(value=0)
        ref.index = self._check_expr(ref.index, locals_in_scope)
        if expr_reads_register(ref.index):
            self.info.stateful_index_registers.add(ref.register)
        return ref


def expr_reads_register(expr: Expr) -> bool:
    """True if evaluating ``expr`` requires reading any register state."""
    if isinstance(expr, RegisterRef):
        return True
    if isinstance(expr, UnaryExpr):
        return expr_reads_register(expr.operand)
    if isinstance(expr, BinaryExpr):
        return expr_reads_register(expr.left) or expr_reads_register(expr.right)
    if isinstance(expr, TernaryExpr):
        return (
            expr_reads_register(expr.condition)
            or expr_reads_register(expr.if_true)
            or expr_reads_register(expr.if_false)
        )
    if isinstance(expr, CallExpr):
        return any(expr_reads_register(a) for a in expr.args)
    return False


def analyze(program: Program) -> SemanticInfo:
    """Run semantic analysis on ``program``, normalizing its AST in place."""
    return SemanticAnalyzer(program).analyze()
