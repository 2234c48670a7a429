"""SSA-to-Python compilation: the scalar statement printer.

The interpreter (:class:`~repro.compiler.tac.TacEvaluator`) dispatches on
every instruction; for large simulations the dispatch dominates. This
module prints a stage's lowered statements
(:func:`repro.compiler.lower.lower_stage`) as Python with the exact same
semantics — 32-bit two's-complement arithmetic, C-style division,
guarded state accesses — and is verified against the interpreter by the
test suite over every bundled program and fuzzed programs.

:class:`ScalarPrinter` owns those semantics **once**: wrap, compare,
truncating div/mod, masked shifts, guards and select (a builtin call
arrives lowered to those). What differs between its two users is only
*storage* — where a header field or a register slot lives — which each
supplies as a few hooks:

* here, a packet's ``headers``/``env`` dicts plus the ``on_access``
  callback (:func:`compile_instrs`, the scalar engines);
* in :mod:`repro.compiler.native`, one row of the vector engine's
  ``int64`` columns (the fused per-row kernel).

Temps live in the packet's ``env`` dict between stages (the PHV); within
a compiled stage they become Python locals, with a prologue loading the
temps earlier stages defined and an epilogue publishing the stage's own
definitions.

Usage::

    stage_fn = compile_instrs(stage.instrs)
    stage_fn(headers, registers, env, on_access)
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Sequence

from ..errors import CompilerError
from .lower import SSAStmt, lower_stage
from .tac import Const, TacInstr

_counter = itertools.count()

# Operators whose Python semantics already match the evaluator's after a
# single wrap of the result.
_WRAPPED_BINOPS = {"+", "-", "*"}
# Operators closed on the signed 32-bit range, printed without the wrap:
# every SSA value is already in that range (field loads, constants and
# arithmetic results are wrapped where they are defined).
_BITWISE = {"&", "|", "^"}
_COMPARISONS = {"==", "!=", "<", "<=", ">", ">="}

StageFn = Callable[[dict, dict, dict, Optional[Callable]], None]


def _wrapped(expr: str) -> str:
    """Emit ``expr`` wrapped to signed 32 bits, inline.

    ``((v + 2**31) & 0xFFFFFFFF) - 2**31`` is branchless and exactly
    equal to :func:`~repro.compiler.tac._to_signed32` for every int
    (both compute ``((v mod 2**32) + 2**31) mod 2**32 - 2**31``);
    emitting it inline removes one function call per arithmetic
    instruction per packet from the simulation hot path, and keeps
    ``int64`` intermediates of 32-bit operands from overflowing.
    """
    return f"((({expr}) + 2147483648) & 4294967295) - 2147483648"


class ScalarPrinter:
    """Prints :class:`SSAStmt`s as scalar Python statements.

    Subclasses say where values are stored: :meth:`field_load` returns
    an expression, :meth:`field_store` one statement, :meth:`reg_load`
    and :meth:`reg_store` the statements of one state access (placed
    under the statement's guard here, with a guarded load defining
    ``dest = 0`` on the false branch). ``depth`` is the indentation of
    the stage body.
    """

    depth = 1

    def __init__(self) -> None:
        self.lines: List[str] = []
        self._tmp = itertools.count()

    def emit(self, line: str, extra: int = 0) -> None:
        self.lines.append("    " * (self.depth + extra) + line)

    # -- storage hooks -------------------------------------------------

    def field_load(self, field: str) -> str:
        raise NotImplementedError

    def field_store(self, field: str, value: str) -> str:
        raise NotImplementedError

    def reg_load(self, dest: str, reg: str, idx: str) -> List[str]:
        raise NotImplementedError

    def reg_store(self, reg: str, idx: str, value: str) -> List[str]:
        raise NotImplementedError

    # -- semantics -----------------------------------------------------

    def _guarded(self, guard: Optional[str], body: List[str]) -> None:
        extra = 0
        if guard is not None:
            self.emit(f"if {guard} != 0:")
            extra = 1
        for line in body:
            self.emit(line, extra)

    def stmt(self, s: SSAStmt) -> None:
        emit = self.emit
        args = s.operands()
        if s.kind == "field_load":
            emit(f"{s.dest} = {_wrapped(self.field_load(s.field))}")
        elif s.kind == "field_store":
            self._guarded(s.guard, [self.field_store(s.field, args[0])])
        elif s.kind == "const":
            emit(f"{s.dest} = {args[0]}")
        elif s.kind == "unary":
            (a,) = args
            if s.op == "-":
                emit(f"{s.dest} = {_wrapped(f'-({a})')}")
            elif s.op == "!":
                emit(f"{s.dest} = 0 if ({a}) != 0 else 1")
            else:
                raise CompilerError(f"jit: unknown unary op {s.op!r}")
        elif s.kind == "binary":
            self._binary(s.dest, s.op, *args)
        elif s.kind == "select":
            g, a, b = args
            emit(f"{s.dest} = ({a}) if ({g}) != 0 else ({b})")
        elif s.kind == "reg_load":
            self._guarded(s.guard, self.reg_load(s.dest, s.reg, args[0]))
            if s.guard is not None:
                # No state access at all on a false guard.
                emit("else:")
                emit(f"{s.dest} = 0", 1)
        elif s.kind == "reg_store":
            self._guarded(s.guard, self.reg_store(s.reg, args[0], args[1]))
        else:
            raise CompilerError(f"jit: unknown statement kind {s.kind}")

    def _binary(self, dest: str, op: str, a: str, b: str) -> None:
        emit = self.emit
        if op in _WRAPPED_BINOPS:
            emit(f"{dest} = {_wrapped(f'({a}) {op} ({b})')}")
        elif op in _BITWISE:
            emit(f"{dest} = ({a}) {op} ({b})")
        elif op in _COMPARISONS:
            emit(f"{dest} = 1 if ({a}) {op} ({b}) else 0")
        elif op in ("/", "%"):
            # C-style truncating division in integers: quotient rounded
            # toward zero, remainder matching its sign rules, 0 on
            # division by zero.
            q = f"_q{next(self._tmp)}"
            emit(f"if ({b}) == 0:")
            emit(f"{dest} = 0", 1)
            emit("else:")
            emit(f"{q} = abs({a}) // abs({b})", 1)
            emit(f"if (({a}) < 0) != (({b}) < 0):", 1)
            emit(f"{q} = -{q}", 2)
            if op == "/":
                emit(f"{dest} = {_wrapped(q)}", 1)
            else:
                emit(f"{dest} = {_wrapped(f'({a}) - ({b}) * {q}')}", 1)
        elif op == "&&":
            emit(f"{dest} = 1 if (({a}) != 0 and ({b}) != 0) else 0")
        elif op == "||":
            emit(f"{dest} = 1 if (({a}) != 0 or ({b}) != 0) else 0")
        elif op == "<<":
            emit(f"{dest} = {_wrapped(f'({a}) << (({b}) & 31)')}")
        elif op == ">>":
            emit(
                f"{dest} = "
                f"{_wrapped(f'(({a}) & 4294967295) >> (({b}) & 31)')}"
            )
        else:
            raise CompilerError(f"jit: unknown binary op {op!r}")


class _PacketPrinter(ScalarPrinter):
    """Storage: one packet's ``headers`` dict, the shared ``registers``
    lists, and the ``on_access`` callback C1 accounting hangs off."""

    def field_load(self, field):
        return f"headers.get({field!r}, 0)"

    def field_store(self, field, value):
        return f"headers[{field!r}] = {value}"

    def _slot(self, reg, idx):
        return [f"_arr = registers[{reg!r}]", f"_i = ({idx}) % len(_arr)"]

    def reg_load(self, dest, reg, idx):
        return self._slot(reg, idx) + [
            f"{dest} = _arr[_i]",
            f"on_access({reg!r}, _i, 'read') if on_access else None",
        ]

    def reg_store(self, reg, idx, value):
        return self._slot(reg, idx) + [
            f"_arr[_i] = {value}",
            f"on_access({reg!r}, _i, 'write') if on_access else None",
        ]


def compile_instrs(
    instrs: Sequence[TacInstr], name: str = "stage"
) -> Optional[StageFn]:
    """Compile ``instrs`` into a single callable; None for an empty list."""
    ssa = lower_stage(instrs, name)
    if ssa is None:
        return None
    printer = _PacketPrinter()
    printer.lines.append(
        f"def _{name}(headers, registers, env, on_access=None):"
    )
    # Prologue: pull carried temps out of the PHV.
    for temp in ssa.temps_in:
        printer.emit(f"{ssa.temp_vars[temp]} = env[{temp!r}]")
    for stmt in ssa.stmts:
        printer.stmt(stmt)
    # Epilogue: publish this stage's definitions for later stages.
    for temp in ssa.temps_out:
        printer.emit(f"env[{temp!r}] = {ssa.temp_vars[temp]}")

    source = "\n".join(printer.lines)
    scope: dict = {}
    exec(compile(source, f"<jit:{name}:{next(_counter)}>", "exec"), scope)
    fn = scope[f"_{name}"]
    fn.__doc__ = source  # keep the generated code inspectable
    return fn


def compile_operand_reader(operand) -> Callable[[Dict], int]:
    """Compile one TAC operand into a reusable ``env -> value`` reader.

    The simulator's address-resolution stage evaluates the same guard and
    index operands for every packet; building the reader once at switch
    construction (instead of closing over each packet's ``env``) keeps
    the per-packet fast path allocation-free. The ``env`` is the
    compiled stage functions' (temps keyed by name).
    """
    if isinstance(operand, Const):
        value = operand.value

        def read_const(_env, _value=value):
            return _value

        return read_const
    def read_temp(env, _key=operand.name):
        return env[_key]

    return read_temp


def compile_program_stages(program) -> List[Optional[StageFn]]:
    """Compile every stage of a :class:`CompiledProgram`; index-aligned
    with ``program.stages``."""
    return [
        compile_instrs(stage.instrs, name=f"s{stage.index}")
        for stage in program.stages
    ]
