"""Banzai atoms: the action units of a pipeline stage (§2.1).

An atom bundles the TAC instructions one stage executes for a packet.
Stateless atoms touch only packet state (header fields and carried
temporaries); stateful atoms additionally read/modify/write register
state, and Banzai guarantees those operations complete within the stage
("atomic state operations").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..compiler.tac import TacEvaluator, TacInstr, Temp
from .registers import RegisterFile


@dataclass
class Atom:
    """One action unit: an ordered list of TAC instructions."""

    instrs: List[TacInstr] = field(default_factory=list)
    name: str = "atom"

    @property
    def is_stateful(self) -> bool:
        return any(i.is_stateful for i in self.instrs)

    @property
    def arrays(self) -> List[str]:
        seen: List[str] = []
        for instr in self.instrs:
            if instr.reg is not None and instr.reg not in seen:
                seen.append(instr.reg)
        return seen

    def execute(
        self,
        headers: Dict[str, int],
        env: Dict[Temp, int],
        registers: RegisterFile,
        on_access=None,
    ) -> None:
        """Run the atom against a packet's headers/PHV and the registers.

        ``env`` is the packet's carried temporaries (its PHV metadata);
        the same dict must be passed to every stage the packet traverses.
        ``on_access`` (if given) is invoked for every state access that
        actually fires, as ``on_access(reg, index, kind)``.
        """
        evaluator = TacEvaluator(headers, registers.arrays, env, on_access=on_access)
        evaluator.run(self.instrs)

    def __len__(self) -> int:
        return len(self.instrs)

    def __str__(self) -> str:
        kind = "stateful" if self.is_stateful else "stateless"
        return f"{self.name} ({kind}, {len(self.instrs)} ops)"
