"""Builtin functions available in Domino expressions.

Hash builtins model the hardware hash units of an RMT pipeline: they are
deterministic, stateless, and cheap. We use a Knuth-style multiplicative
mix so that distinct tuples spread well across register indexes, which is
what the sharding experiments rely on. All arithmetic is done modulo
2**32 to mirror 32-bit datapath semantics.

:data:`BUILTINS` states each builtin once: its arity, its reference
function, and the plain ops the code generators lower a call into (a
hash unit as ordinary ALU atoms, as in Packet Transactions).
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Sequence, Tuple

MASK32 = 0xFFFFFFFF
_SEED = 0x811C9DC5
_GOLDEN = 0x9E3779B1  # 2**32 / golden ratio, a classic Fibonacci-hash constant


def _mix(state: int, value: int) -> int:
    state = (state ^ (value & MASK32)) & MASK32
    state = (state * _GOLDEN) & MASK32
    state ^= state >> 15
    return state & MASK32


def hash_tuple(values: Sequence[int]) -> int:
    """Deterministic hash of an integer tuple.

    The result is masked to 31 bits so it stays non-negative under the
    32-bit two's-complement datapath semantics — hardware hash units feed
    address lines and never produce "negative" indexes.
    """
    state = _SEED
    for value in values:
        state = _mix(state, value)
    return state & 0x7FFFFFFF


def hash2(a: int, b: int) -> int:
    return hash_tuple((a, b))


def hash3(a: int, b: int, c: int) -> int:
    return hash_tuple((a, b, c))


def hash5(a: int, b: int, c: int, d: int, e: int) -> int:
    return hash_tuple((a, b, c, d, e))


def builtin_min(a: int, b: int) -> int:
    return a if a < b else b


def builtin_max(a: int, b: int) -> int:
    return a if a > b else b


def _hash_ops(arity: int) -> Tuple[tuple, ...]:
    """:func:`hash_tuple` as 32-bit ops; constants enter in signed form."""
    ops: List[tuple] = []
    s = _SEED - (1 << 32)
    for i in range(arity):
        k = len(ops)  # this argument's four ops define t{k} .. t{k+3}
        ops.append(("^", s, f"x{i}"))
        ops.append(("*", f"t{k}", _GOLDEN - (1 << 32)))
        ops.append((">>", f"t{k + 1}", 15))
        ops.append(("^", f"t{k + 1}", f"t{k + 2}"))
        s = f"t{k + 3}"
    return tuple(ops) + (("&", s, 0x7FFFFFFF),)


class Builtin(NamedTuple):
    """Arity, reference function and op list. An op is ``(op, *args)``,
    a TAC binary operator or ``"?"`` (select), over int constants,
    arguments ``"x{i}"`` and earlier results ``"t{k}"``; the last op's
    result is the call's value. Calling a builtin runs ``fn``."""

    arity: int
    fn: Callable[..., int]
    ops: Tuple[tuple, ...]

    def __call__(self, *args: int) -> int:
        return self.fn(*args)


_SELECT = ("?", "t0", "x0", "x1")
BUILTINS: Dict[str, Builtin] = {
    "hash2": Builtin(2, hash2, _hash_ops(2)),
    "hash3": Builtin(3, hash3, _hash_ops(3)),
    "hash5": Builtin(5, hash5, _hash_ops(5)),
    "min": Builtin(2, builtin_min, (("<", "x0", "x1"), _SELECT)),
    "max": Builtin(2, builtin_max, ((">", "x0", "x1"), _SELECT)),
}
