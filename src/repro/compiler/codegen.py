"""Code generation: map a transformed PVSM onto a Banzai machine target.

The code generator enforces the target's resource limits (stage count,
atoms per stage) and produces a :class:`CompiledProgram`, the artifact
both the single-pipeline reference and the MP5 multi-pipeline simulator
execute. Following §3.3:

* if the serialized schedule (one register array per stage) fits the
  stage budget, it is used — every array keeps its sharding eligibility;
* otherwise codegen falls back to the unserialized schedule, and any
  arrays that share a stage are *pinned* to a common pipeline (their
  ``pin_key`` groups them), trading parallelism for feasibility;
* if even that does not fit, a :class:`~repro.errors.ResourceError` is
  raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List

from ..errors import ResourceError
from .pvsm import PvsmStage
from .tac import TacEvaluator, TacInstr, TacProgram
from .transformer import ArrayPlan, TransformedProgram


@dataclass(frozen=True)
class BanzaiTarget:
    """Resource envelope of the physical pipeline being compiled for.

    Defaults follow the paper's evaluation configuration: a 16-stage
    pipeline (§4.3.1) with a generous per-stage atom budget (the paper's
    area results use Banzai-style stages whose atom count is not the
    binding constraint for these programs) and the strongest Banzai atom
    template family (``paired``), which the multi-state programs like
    CONGA require. Restricting ``atom_template`` models weaker machines.
    """

    num_stages: int = 16
    max_atoms_per_stage: int = 64
    atom_template: str = "paired"
    name: str = "tofino-like"

    def __post_init__(self):
        from ..banzai.templates import TEMPLATE_BY_NAME

        if self.num_stages < 2:
            raise ResourceError("target needs at least 2 stages (resolution + 1)")
        if self.max_atoms_per_stage < 1:
            raise ResourceError("target needs at least 1 atom per stage")
        if self.atom_template not in TEMPLATE_BY_NAME:
            raise ResourceError(
                f"unknown atom template {self.atom_template!r}; choose from "
                f"{sorted(TEMPLATE_BY_NAME)}"
            )


@dataclass
class StageProgram:
    """The instructions and register arrays of one physical stage."""

    index: int
    instrs: List[TacInstr] = field(default_factory=list)
    arrays: List[str] = field(default_factory=list)

    @property
    def is_stateful(self) -> bool:
        return bool(self.arrays)


@dataclass
class CompiledProgram:
    """A program compiled for an MP5 (or single Banzai) pipeline.

    ``stages[0]`` is the preemptive address-resolution stage inserted by
    the MP5 transformer; the remaining entries carry the original
    processing with at most one *sharded* register array per stage.
    """

    name: str
    target: BanzaiTarget
    stages: List[StageProgram]
    arrays: Dict[str, ArrayPlan]
    packet_fields: List[str]
    tac: TacProgram
    # Compiled kernels, keyed by kernel kind and its parameters:
    # compilation is deterministic in the program, and sweeps construct
    # a fresh switch per run over one compiled program.
    kernels: Dict[tuple, object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def stage_count(self) -> int:
        """Number of stages actually used (including resolution)."""
        return len(self.stages)

    @property
    def resolution(self) -> StageProgram:
        return self.stages[0]

    @property
    def stateful_stage_indexes(self) -> List[int]:
        return [s.index for s in self.stages if s.is_stateful]

    @property
    def is_stateless(self) -> bool:
        return not self.arrays

    def arrays_in_stage_order(self) -> List[ArrayPlan]:
        return sorted(self.arrays.values(), key=lambda a: (a.stage, a.name))

    def make_register_store(self) -> Dict[str, List[int]]:
        """Fresh register state initialized per the program's declarations."""
        return {
            name: list(self.tac.registers[name][1]) for name in self.tac.registers
        }

    # ------------------------------------------------------------------
    # Reference execution (logical single pipeline)
    # ------------------------------------------------------------------

    def execute_packet(
        self, headers: Dict[str, int], registers: Dict[str, List[int]]
    ) -> Dict[str, int]:
        """Process one packet to completion against ``registers``.

        This is the semantics of the logical single-pipelined switch:
        stages execute in order with no interleaving from other packets.
        Mutates ``headers`` and ``registers``; also returns ``headers``.
        """
        evaluator = TacEvaluator(headers, registers)
        for stage in self.stages:
            evaluator.run(stage.instrs)
        return headers

    def jit_stage_functions(self):
        """Stage programs compiled to Python callables (cached).

        Index-aligned with ``stages``; ``None`` for empty stages. Shared
        across every simulator instance running this program.
        """
        if ("jit",) not in self.kernels:
            from .jit import compile_program_stages

            self.kernels[("jit",)] = compile_program_stages(self)
        return self.kernels[("jit",)]

    def describe(self) -> str:
        """Human-readable summary of the compiled layout."""
        lines = [f"program {self.name!r} on target {self.target.name!r}:"]
        for stage in self.stages:
            tag = "resolution" if stage.index == 0 else f"stage {stage.index}"
            arrays = f" arrays={stage.arrays}" if stage.arrays else ""
            lines.append(f"  {tag}: {len(stage.instrs)} ops{arrays}")
        for plan in self.arrays_in_stage_order():
            kind = "shardable" if plan.shardable else "pinned"
            extra = " conservative-phantom" if plan.conservative_phantom else ""
            lines.append(
                f"  array {plan.name}[{plan.size}] @ stage {plan.stage}: "
                f"{kind}{extra}"
            )
        return "\n".join(lines)


def _stages_from_pvsm(stages: List[PvsmStage]) -> List[StageProgram]:
    return [
        StageProgram(index=i, instrs=list(s.instrs), arrays=list(s.arrays))
        for i, s in enumerate(stages)
    ]


def _check_atom_budget(stages: List[StageProgram], target: BanzaiTarget, name: str):
    for stage in stages:
        if len(stage.instrs) > target.max_atoms_per_stage:
            raise ResourceError(
                f"program {name!r}: stage {stage.index} needs "
                f"{len(stage.instrs)} atoms, target allows "
                f"{target.max_atoms_per_stage}"
            )


def generate(
    transformed: TransformedProgram,
    target: BanzaiTarget,
    name: str = "<program>",
) -> CompiledProgram:
    """Lower a transformed PVSM onto ``target``."""
    stages = _stages_from_pvsm(transformed.pvsm.stages)
    if len(stages) > target.num_stages:
        raise ResourceError(
            f"program {name!r} needs {len(stages)} stages, target "
            f"{target.name!r} has {target.num_stages}"
        )
    _check_atom_budget(stages, target, name)

    from ..banzai.templates import TEMPLATE_BY_NAME, check_atom_feasibility

    check_atom_feasibility(
        stages, TEMPLATE_BY_NAME[target.atom_template], program_name=name
    )

    arrays: Dict[str, ArrayPlan] = {}
    for stage in stages:
        if len(stage.arrays) > 1:
            # Co-staged arrays: every array in this stage is pinned to a
            # common pipeline (the conservative §3.3 fallback).
            for reg in stage.arrays:
                plan = transformed.arrays[reg]
                arrays[reg] = replace(
                    plan, shardable=False, pin_key=f"stage{stage.index}"
                )
        else:
            for reg in stage.arrays:
                arrays[reg] = transformed.arrays[reg]

    return CompiledProgram(
        name=name,
        target=target,
        stages=stages,
        arrays=arrays,
        packet_fields=list(transformed.tac.packet_fields),
        tac=transformed.tac,
    )
