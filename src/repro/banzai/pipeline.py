"""A cycle-accurate single Banzai pipeline — the logical reference switch.

This is the "logical single pipelined programmable switch" of §2.2: a
single feed-forward pipeline that processes packets at the full line rate
N*B. Its characteristics (§2.1) hold structurally here:

* **feed-forward** — packets advance exactly one stage per cycle;
* **one packet per stage** — enforced by construction (injection admits
  at most one packet per cycle, stages shift in lockstep);
* **atomic state operations** — a stage's atom executes completely within
  the cycle the packet occupies that stage;
* **no state sharing across stages** — each register array belongs to
  exactly one stage.

Because the pipeline never stalls, the state-access order it produces is
the packet arrival order; that order and the final (register, packet)
state are the ground truth the equivalence checker compares MP5 against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..compiler.codegen import CompiledProgram
from ..compiler.tac import Temp
from ..errors import ConfigError
from .atoms import Atom
from .match_table import MatchTable
from .registers import RegisterFile


@dataclass
class PipelinePacket:
    """A packet traversing the pipeline (its PHV)."""

    pkt_id: int
    arrival: float
    port: int
    headers: Dict[str, int]
    env: Dict[Temp, int] = field(default_factory=dict)
    egress_cycle: Optional[int] = None


@dataclass
class BanzaiStageUnit:
    """One physical stage: a match table plus its action atom."""

    index: int
    table: MatchTable
    atom: Atom

    def process(
        self,
        packet: PipelinePacket,
        registers: RegisterFile,
        on_access=None,
    ) -> None:
        entry = self.table.lookup(packet.headers)
        if entry is None:
            return
        self.atom.execute(packet.headers, packet.env, registers, on_access=on_access)


@dataclass
class RunResult:
    """Outcome of driving a packet trace through a pipeline."""

    packets: List[PipelinePacket]
    registers: RegisterFile
    cycles: int
    # Arrival-ordered ids of packets that accessed each state, keyed by
    # (array, index); the C1 reference order.
    access_order: Dict[Tuple[str, int], List[int]] = field(default_factory=dict)

    def headers_by_id(self) -> Dict[int, Dict[str, int]]:
        return {p.pkt_id: p.headers for p in self.packets}


class BanzaiPipeline:
    """Cycle-driven simulator of a single Banzai pipeline."""

    def __init__(self, program: CompiledProgram):
        self.program = program
        self.registers = RegisterFile.from_declarations(program.tac.registers)
        self.stages: List[BanzaiStageUnit] = [
            BanzaiStageUnit(
                index=stage.index,
                table=MatchTable.wildcard(name=f"stage{stage.index}"),
                atom=Atom(instrs=list(stage.instrs), name=f"atom{stage.index}"),
            )
            for stage in program.stages
        ]
        if not self.stages:
            raise ConfigError("program has no stages")

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def run(
        self,
        trace: List[Tuple[float, int, Dict[str, int]]],
        record_access_order: bool = False,
    ) -> RunResult:
        """Drive ``trace`` — a list of (arrival_time, port, headers) — to
        completion and return the final state.

        Arrival times are in units of this pipeline's own cycles (it
        serves one packet per cycle at full line rate). Ties are broken
        by port id, per §2.2.1.
        """
        ordered = sorted(
            (
                PipelinePacket(pkt_id=i, arrival=t, port=port, headers=dict(headers))
                for i, (t, port, headers) in enumerate(trace)
            ),
            key=lambda p: (p.arrival, p.port, p.pkt_id),
        )
        for seq, packet in enumerate(ordered):
            packet.pkt_id = seq  # arrival-ordered ids, matching MP5Switch
        access_order: Dict[Tuple[str, int], List[int]] = {}
        in_flight: List[Optional[PipelinePacket]] = [None] * self.num_stages
        cycle = 0
        next_input = 0
        while next_input < len(ordered) or any(p is not None for p in in_flight):
            # Shift the pipeline: last stage egresses, others advance.
            tail = in_flight[-1]
            if tail is not None:
                tail.egress_cycle = cycle
            for i in range(self.num_stages - 1, 0, -1):
                in_flight[i] = in_flight[i - 1]
            in_flight[0] = None
            # Inject at most one packet whose arrival time has come.
            if next_input < len(ordered) and ordered[next_input].arrival <= cycle:
                in_flight[0] = ordered[next_input]
                next_input += 1
            # Each occupied stage processes its packet this cycle.
            for stage, packet in zip(self.stages, in_flight):
                if packet is None:
                    continue
                if record_access_order:
                    pkt_id = packet.pkt_id

                    def logger(reg, idx, kind, _pid=pkt_id):
                        key = (reg, idx)
                        order = access_order.setdefault(key, [])
                        if not order or order[-1] != _pid:
                            order.append(_pid)

                    stage.process(packet, self.registers, on_access=logger)
                else:
                    stage.process(packet, self.registers)
            cycle += 1
        return RunResult(
            packets=ordered,
            registers=self.registers,
            cycles=cycle,
            access_order=access_order,
        )


def run_reference(
    program: CompiledProgram,
    trace: List[Tuple[float, int, Dict[str, int]]],
    record_access_order: bool = True,
) -> RunResult:
    """Convenience: run ``trace`` through a fresh single Banzai pipeline."""
    return BanzaiPipeline(program).run(trace, record_access_order=record_access_order)
