"""Register state for Banzai/MP5 pipelines.

A :class:`RegisterFile` holds every register array declared by a program.
In hardware each array lives inside one pipeline stage (Banzai: "no state
sharing across stages"); here the file is a single object because the
simulators enforce the stage-locality discipline structurally (a stage's
atom only ever names its own arrays).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

from ..errors import ConfigError


class RegisterFile:
    """Mutable register arrays with snapshot/compare support."""

    def __init__(self, arrays: Mapping[str, Iterable[int]]):
        self._arrays: Dict[str, List[int]] = {
            name: list(values) for name, values in arrays.items()
        }
        for name, values in self._arrays.items():
            if not values:
                raise ConfigError(f"register array {name!r} has zero size")

    @classmethod
    def from_declarations(
        cls, declarations: Mapping[str, Tuple[int, Tuple[int, ...]]]
    ) -> "RegisterFile":
        """Build from ``{name: (size, initial_values)}`` (TacProgram form)."""
        return cls({name: init for name, (_size, init) in declarations.items()})

    @property
    def arrays(self) -> Dict[str, List[int]]:
        """Direct access for evaluators; treat as borrowed, not owned."""
        return self._arrays

    def names(self) -> List[str]:
        return sorted(self._arrays)

    def read(self, name: str, index: int) -> int:
        array = self._arrays[name]
        return array[index % len(array)]

    def write(self, name: str, index: int, value: int) -> None:
        array = self._arrays[name]
        array[index % len(array)] = value

    def snapshot(self) -> Dict[str, Tuple[int, ...]]:
        return {name: tuple(values) for name, values in self._arrays.items()}

    def restore(self, snapshot: Mapping[str, Tuple[int, ...]]) -> None:
        for name, values in snapshot.items():
            self._arrays[name] = list(values)

    def diff(self, other: "RegisterFile") -> Dict[str, List[Tuple[int, int, int]]]:
        """Per-array list of (index, self_value, other_value) mismatches."""
        mismatches: Dict[str, List[Tuple[int, int, int]]] = {}
        for name, mine in self._arrays.items():
            theirs = other._arrays.get(name)
            if theirs is None:
                mismatches[name] = [(i, v, 0) for i, v in enumerate(mine)]
                continue
            bad = [
                (i, a, b) for i, (a, b) in enumerate(zip(mine, theirs)) if a != b
            ]
            if bad:
                mismatches[name] = bad
        return mismatches

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegisterFile):
            return NotImplemented
        return self._arrays == other._arrays

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(f"{n}[{len(v)}]" for n, v in sorted(self._arrays.items()))
        return f"RegisterFile({parts})"
