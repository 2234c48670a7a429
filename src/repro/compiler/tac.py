"""Three-address code (TAC) intermediate representation.

The Domino compiler's preprocessing phase (§3.3, Figure 5) converts the
input program into "a simpler three-address code form". Our TAC is a
straight-line sequence of instructions over *temporaries*; control flow
has been flattened into guards (predicated execution) exactly the way
Domino lowers branches into predicated packet transactions.

Instruction kinds
-----------------

``read_field``   t = p.f                  (load a packet header field)
``write_field``  p.f = a        [guard]   (store a packet header field)
``const``        t = c
``unary``        t = op a
``binary``       t = a op b
``call``         t = builtin(a, ...)
``select``       t = g ? a : b            (mux; the workhorse of flattening)
``reg_read``     t = R[idx]     [guard]   (stateful: read register slot)
``reg_write``    R[idx] = a     [guard]   (stateful: write register slot)

Guards are temporaries holding 0/1. A ``None`` guard means
unconditional. ``reg_read``/``reg_write`` with a false guard perform *no
state access at all* — this is what preserves the program's state-access
pattern (which registers a given packet touches), the property MP5's
correctness condition C1 is defined over.

All arithmetic is 32-bit two's complement, mirroring the switch datapath.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..domino.builtins import BUILTINS, MASK32
from ..errors import CompilerError


@dataclass(frozen=True)
class Temp:
    """An SSA-style temporary. Each temp is assigned exactly once."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    """An integer constant operand."""

    value: int

    def __str__(self) -> str:
        return str(self.value)


Operand = Union[Temp, Const]


class OpKind(enum.Enum):
    READ_FIELD = "read_field"
    WRITE_FIELD = "write_field"
    CONST = "const"
    UNARY = "unary"
    BINARY = "binary"
    CALL = "call"
    SELECT = "select"
    REG_READ = "reg_read"
    REG_WRITE = "reg_write"


@dataclass
class TacInstr:
    """One TAC instruction.

    Field usage by kind:

    * READ_FIELD:  dest, field
    * WRITE_FIELD: field, args=[value], guard?
    * CONST:       dest, args=[Const]
    * UNARY:       dest, op, args=[a]
    * BINARY:      dest, op, args=[a, b]
    * CALL:        dest, op=builtin name, args
    * SELECT:      dest, args=[g, if_true, if_false]
    * REG_READ:    dest, reg, args=[idx], guard?
    * REG_WRITE:   reg, args=[idx, value], guard?
    """

    kind: OpKind
    dest: Optional[Temp] = None
    op: str = ""
    args: List[Operand] = field(default_factory=list)
    guard: Optional[Temp] = None
    reg: Optional[str] = None
    field_name: Optional[str] = None

    # ------------------------------------------------------------------
    # Introspection used by the scheduler
    # ------------------------------------------------------------------

    def uses(self) -> List[Temp]:
        """Temporaries this instruction reads (including its guard)."""
        used = [a for a in self.args if isinstance(a, Temp)]
        if self.guard is not None:
            used.append(self.guard)
        return used

    def defines(self) -> Optional[Temp]:
        return self.dest

    @property
    def is_stateful(self) -> bool:
        return self.kind in (OpKind.REG_READ, OpKind.REG_WRITE)

    def __str__(self) -> str:
        guard = f" [if {self.guard}]" if self.guard is not None else ""
        if self.kind is OpKind.READ_FIELD:
            return f"{self.dest} = p.{self.field_name}"
        if self.kind is OpKind.WRITE_FIELD:
            return f"p.{self.field_name} = {self.args[0]}{guard}"
        if self.kind is OpKind.CONST:
            return f"{self.dest} = {self.args[0]}"
        if self.kind is OpKind.UNARY:
            return f"{self.dest} = {self.op}{self.args[0]}"
        if self.kind is OpKind.BINARY:
            return f"{self.dest} = {self.args[0]} {self.op} {self.args[1]}"
        if self.kind is OpKind.CALL:
            joined = ", ".join(str(a) for a in self.args)
            return f"{self.dest} = {self.op}({joined})"
        if self.kind is OpKind.SELECT:
            return f"{self.dest} = {self.args[0]} ? {self.args[1]} : {self.args[2]}"
        if self.kind is OpKind.REG_READ:
            return f"{self.dest} = {self.reg}[{self.args[0]}]{guard}"
        if self.kind is OpKind.REG_WRITE:
            return f"{self.reg}[{self.args[0]}] = {self.args[1]}{guard}"
        raise AssertionError(self.kind)


@dataclass
class TacProgram:
    """A lowered program: straight-line TAC plus declarations."""

    instrs: List[TacInstr]
    packet_fields: List[str]
    # name -> (size, initial values)
    registers: Dict[str, Tuple[int, Tuple[int, ...]]]
    source_name: str = "<tac>"

    def __str__(self) -> str:
        return "\n".join(str(i) for i in self.instrs)

    @property
    def register_names(self) -> List[str]:
        return list(self.registers)

    def validate(self) -> None:
        """Check SSA discipline and use-before-def; raises CompilerError."""
        defined: set = set()
        for instr in self.instrs:
            for used in instr.uses():
                if used not in defined:
                    raise CompilerError(
                        f"{self.source_name}: temp {used} used before definition "
                        f"in {instr}"
                    )
            dest = instr.defines()
            if dest is not None:
                if dest in defined:
                    raise CompilerError(
                        f"{self.source_name}: temp {dest} defined twice"
                    )
                defined.add(dest)


# ----------------------------------------------------------------------
# Evaluation
# ----------------------------------------------------------------------

def _to_signed32(value: int) -> int:
    value &= MASK32
    return value - (1 << 32) if value & 0x80000000 else value


def _wrap(value: int) -> int:
    return _to_signed32(value)


_BINARY_EVAL = {
    "+": lambda a, b: _wrap(a + b),
    "-": lambda a, b: _wrap(a - b),
    "*": lambda a, b: _wrap(a * b),
    "/": lambda a, b: _wrap(int(a / b)) if b != 0 else 0,
    "%": lambda a, b: _wrap(int(a - b * int(a / b))) if b != 0 else 0,
    "==": lambda a, b: int(a == b),
    "!=": lambda a, b: int(a != b),
    "<": lambda a, b: int(a < b),
    "<=": lambda a, b: int(a <= b),
    ">": lambda a, b: int(a > b),
    ">=": lambda a, b: int(a >= b),
    "&&": lambda a, b: int(bool(a) and bool(b)),
    "||": lambda a, b: int(bool(a) or bool(b)),
    "&": lambda a, b: _wrap(a & b),
    "|": lambda a, b: _wrap(a | b),
    "^": lambda a, b: _wrap(a ^ b),
    "<<": lambda a, b: _wrap(a << (b & 31)),
    ">>": lambda a, b: _wrap((a & MASK32) >> (b & 31)),
}

_UNARY_EVAL = {
    "-": lambda a: _wrap(-a),
    "!": lambda a: int(not a),
}


class TacEvaluator:
    """Executes TAC instructions against a packet and register store.

    ``env`` maps Temp -> int for the current packet; ``headers`` is the
    mutable packet header dict; ``registers`` maps array name -> list of
    ints. The evaluator is deliberately tiny — simulators call
    :meth:`run_instr` per instruction so they can interleave state access
    accounting.
    """

    def __init__(
        self,
        headers: Dict[str, int],
        registers: Dict[str, List[int]],
        env: Optional[Dict[Temp, int]] = None,
        on_access=None,
    ):
        self.headers = headers
        self.registers = registers
        self.env: Dict[Temp, int] = env if env is not None else {}
        # Optional callback fired as on_access(reg_name, index, kind)
        # whenever a guarded state access actually executes; used for
        # C1 (state-access-order) accounting.
        self.on_access = on_access

    def value(self, operand: Operand) -> int:
        if isinstance(operand, Const):
            return operand.value
        try:
            return self.env[operand]
        except KeyError:
            raise CompilerError(f"temp {operand} has no value") from None

    def _guard_true(self, instr: TacInstr) -> bool:
        return instr.guard is None or bool(self.env.get(instr.guard, 0))

    def run_instr(self, instr: TacInstr) -> None:
        kind = instr.kind
        if kind is OpKind.READ_FIELD:
            self.env[instr.dest] = _wrap(self.headers.get(instr.field_name, 0))
        elif kind is OpKind.WRITE_FIELD:
            if self._guard_true(instr):
                self.headers[instr.field_name] = self.value(instr.args[0])
        elif kind is OpKind.CONST:
            self.env[instr.dest] = _wrap(self.value(instr.args[0]))
        elif kind is OpKind.UNARY:
            self.env[instr.dest] = _UNARY_EVAL[instr.op](self.value(instr.args[0]))
        elif kind is OpKind.BINARY:
            self.env[instr.dest] = _BINARY_EVAL[instr.op](
                self.value(instr.args[0]), self.value(instr.args[1])
            )
        elif kind is OpKind.CALL:
            func = BUILTINS[instr.op]
            self.env[instr.dest] = _wrap(func(*[self.value(a) for a in instr.args]))
        elif kind is OpKind.SELECT:
            picked = instr.args[1] if self.value(instr.args[0]) else instr.args[2]
            self.env[instr.dest] = self.value(picked)
        elif kind is OpKind.REG_READ:
            if self._guard_true(instr):
                idx = self._reg_index(instr)
                self.env[instr.dest] = self.registers[instr.reg][idx]
                if self.on_access is not None:
                    self.on_access(instr.reg, idx, "read")
            else:
                # No state access; the value is never consumed on paths
                # where the guard is false, but define it to keep SSA sane.
                self.env[instr.dest] = 0
        elif kind is OpKind.REG_WRITE:
            if self._guard_true(instr):
                idx = self._reg_index(instr)
                self.registers[instr.reg][idx] = self.value(instr.args[1])
                if self.on_access is not None:
                    self.on_access(instr.reg, idx, "write")
        else:  # pragma: no cover
            raise AssertionError(kind)

    def _reg_index(self, instr: TacInstr) -> int:
        idx = self.value(instr.args[0])
        size = len(self.registers[instr.reg])
        if not 0 <= idx < size:
            # Hardware register indexes wrap within the array, mirroring
            # the masking an RMT pipeline applies to its address lines.
            idx %= size
        return idx

    def run(self, instrs: Iterable[TacInstr]) -> None:
        for instr in instrs:
            self.run_instr(instr)


class TempFactory:
    """Generates fresh, uniquely named temporaries."""

    def __init__(self, prefix: str = "t"):
        self.prefix = prefix
        self.counter = 0

    def fresh(self, hint: str = "") -> Temp:
        """Return a new uniquely-named temporary."""
        name = f"{self.prefix}{self.counter}"
        if hint:
            name = f"{self.prefix}{self.counter}_{hint}"
        self.counter += 1
        return Temp(name)
