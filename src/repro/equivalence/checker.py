"""Functional-equivalence checker (§2.2.1).

A multi-pipelined switch is functionally equivalent to the logical single
pipelined switch when, starting from the same initial processing state
and the same input packet stream:

* **register state** — every register array holds identical final values;
* **packet state** — every packet leaves with identical header contents.

The checker runs the same trace through the single-Banzai reference and
an MP5 configuration, compares both state components, and additionally
reports C1 (state-access-order) violations, which are the *mechanism*
behind any state divergence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..banzai.pipeline import BanzaiPipeline, RunResult
from ..compiler.codegen import CompiledProgram
from ..errors import EquivalenceError
from ..mp5.config import MP5Config
from ..mp5.engines import build_switch
from ..mp5.packet import DataPacket
from ..mp5.stats import SwitchStats, c1_metrics
from ..mp5.switch import MP5Switch
from ..workloads.traffic import reference_trace


@dataclass
class EquivalenceReport:
    """Structured outcome of one equivalence check."""

    register_equal: bool
    packet_equal: bool
    c1_violating_packets: int
    c1_fraction: float
    register_mismatches: Dict[str, List[Tuple[int, int, int]]] = field(
        default_factory=dict
    )
    packet_mismatches: List[Tuple[int, str, int, int]] = field(default_factory=list)
    dropped_packets: int = 0
    mp5_stats: Optional[SwitchStats] = None

    @property
    def equivalent(self) -> bool:
        return self.register_equal and self.packet_equal

    def raise_if_violated(self) -> None:
        if not self.equivalent:
            raise EquivalenceError(
                f"functional equivalence violated: "
                f"{len(self.register_mismatches)} register arrays and "
                f"{len(self.packet_mismatches)} packet fields differ",
                report=self,
            )

    def summary(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"register state : {'EQUAL' if self.register_equal else 'DIFFERS'}",
            f"packet state   : {'EQUAL' if self.packet_equal else 'DIFFERS'}",
            f"C1 violations  : {self.c1_violating_packets} packets "
            f"({self.c1_fraction:.1%})",
            f"drops          : {self.dropped_packets}",
        ]
        for name, bad in self.register_mismatches.items():
            lines.append(f"  {name}: {len(bad)} slots differ, e.g. {bad[:3]}")
        for pkt_id, fld, want, got in self.packet_mismatches[:5]:
            lines.append(f"  pkt {pkt_id}.{fld}: reference={want} mp5={got}")
        return "\n".join(lines)


def compare_runs(
    program: CompiledProgram,
    reference: RunResult,
    mp5_switch: MP5Switch,
) -> EquivalenceReport:
    """Compare an already-executed reference run and an MP5 run made
    with ``record_access_order=True`` (which keeps its packets)."""
    ref_regs = reference.registers.snapshot()
    reg_mismatches: Dict[str, List[Tuple[int, int, int]]] = {}
    for name, want in ref_regs.items():
        got = mp5_switch.registers.get(name)
        if got is None:
            continue
        bad = [(i, a, b) for i, (a, b) in enumerate(zip(want, got)) if a != b]
        if bad:
            reg_mismatches[name] = bad

    ref_headers = reference.headers_by_id()
    pkt_mismatches: List[Tuple[int, str, int, int]] = []
    dropped = 0
    for pkt in mp5_switch.packets:
        if pkt.dropped:
            dropped += 1
            continue
        want = ref_headers.get(pkt.pkt_id)
        if want is None:
            continue
        for fld in program.packet_fields:
            a = want.get(fld, 0)
            b = pkt.headers.get(fld, 0)
            if a != b:
                pkt_mismatches.append((pkt.pkt_id, fld, a, b))

    c1 = c1_metrics(
        reference.access_order,
        mp5_switch.stats.access_order,
        mp5_switch.stats.offered,
    )
    return EquivalenceReport(
        register_equal=not reg_mismatches,
        packet_equal=not pkt_mismatches,
        c1_violating_packets=c1.displaced_packets,
        c1_fraction=c1.displaced_fraction,
        register_mismatches=reg_mismatches,
        packet_mismatches=pkt_mismatches,
        dropped_packets=dropped,
        mp5_stats=mp5_switch.stats,
    )


@dataclass
class DegradedReport:
    """Outcome of a degraded-contract check (:mod:`repro.faults`).

    Under fault injection the full functional-equivalence contract is
    unattainable — dropped packets never produce output. The degraded
    contract instead asserts:

    * **survivor order (C1)** — for every state, the *surviving* (non-
      dropped) packets accessed it in arrival order. Packet ids are
      assigned in arrival order, so each per-state access sequence,
      filtered to survivors, must be ascending.
    * **drop accounting** — every dropped packet carries a reason, and
      the per-reason buckets sum to the drop total (no silent losses).
    * **conservation** — offered = egressed + dropped + in flight at the
      horizon (``unaccounted``; nonzero only when ``max_ticks`` cut the
      run short, e.g. under a never-ending stall).
    * **online invariants** — the streaming :class:`~repro.obs.monitor.
      InvariantMonitor` rode along and reported no structural invariant
      violations (``monitor_violations``; packet loss is excluded — drops
      under faults are expected and audited by the buckets above).
    """

    offered: int
    egressed: int
    dropped: int
    unaccounted: int
    drops_by_reason: Dict[str, int]
    order_violations: int
    violating_states: List[Tuple[str, Optional[int]]] = field(
        default_factory=list
    )
    stats: Optional[SwitchStats] = None
    health: Optional[str] = None
    monitor_violations: int = 0
    monitor_breakdown: Dict[str, int] = field(default_factory=dict)

    @property
    def accounting_ok(self) -> bool:
        return (
            sum(self.drops_by_reason.values()) == self.dropped
            and self.unaccounted >= 0
        )

    @property
    def contract_holds(self) -> bool:
        return (
            self.order_violations == 0
            and self.accounting_ok
            and self.monitor_violations == 0
        )

    def summary(self) -> str:
        lines = [
            f"degraded contract : {'HOLDS' if self.contract_holds else 'VIOLATED'}",
            f"offered           : {self.offered}",
            f"egressed          : {self.egressed}",
            f"dropped           : {self.dropped} {self.drops_by_reason}",
            f"in flight at end  : {self.unaccounted}",
            f"survivor C1       : {self.order_violations} out-of-order "
            f"accesses across {len(self.violating_states)} states",
        ]
        if self.health is not None:
            lines.append(
                f"online monitor    : {self.health} "
                f"({self.monitor_violations} invariant violations"
                + (
                    f" {self.monitor_breakdown}"
                    if self.monitor_breakdown
                    else ""
                )
                + ")"
            )
        for key in self.violating_states[:5]:
            lines.append(f"  out of order: {key}")
        return "\n".join(lines)

    def raise_if_violated(self) -> None:
        if not self.contract_holds:
            raise EquivalenceError(
                "degraded contract violated:\n" + self.summary(), report=self
            )


def check_degraded(
    program: CompiledProgram,
    trace: List[DataPacket],
    config: Optional[MP5Config] = None,
    faults=None,
    max_ticks: Optional[int] = None,
    engine: str = "fast",
    monitor: bool = True,
) -> DegradedReport:
    """Run ``trace`` under a fault schedule and audit the degraded
    contract (survivor C1 + drop accounting; see :class:`DegradedReport`).

    ``engine`` is a scalar :data:`repro.mp5.ENGINES` name — ``"fast"``
    (:class:`~repro.mp5.switch.MP5Switch`) or ``"dense"`` (the
    reference engine); the differential fault tests run both and
    additionally require identical stats/registers/events. ``"vector"``
    is refused: :func:`~repro.mp5.engines.build_switch` would run it on
    the fast engine, and the audit would pass without the engine named.
    With ``monitor`` (default) an :class:`~repro.obs.monitor.
    InvariantMonitor` streams alongside the run and its verdict feeds
    ``contract_holds`` — the post-hoc audit and the online checks must
    agree.
    """
    from ..obs.monitor import InvariantMonitor

    if engine not in ("fast", "dense"):
        raise EquivalenceError(
            f"check_degraded runs 'fast' or 'dense', not {engine!r}"
        )
    live_monitor = InvariantMonitor() if monitor else None
    switch = build_switch(
        engine,
        program,
        config,
        faults=faults,
        record_access_order=True,
        monitor=live_monitor,
    )
    stats = switch.run(trace, max_ticks=max_ticks, record_access_order=True)

    dropped_ids = {pkt.pkt_id for pkt in switch.packets if pkt.dropped}
    violations = 0
    violating: List[Tuple[str, Optional[int]]] = []
    for key, order in stats.access_order.items():
        high = -1
        bad = 0
        for pkt_id in order:
            if pkt_id in dropped_ids:
                continue
            if pkt_id < high:
                bad += 1
            else:
                high = pkt_id
        if bad:
            violations += bad
            violating.append(key)
    health = None
    monitor_violations = 0
    monitor_breakdown: Dict[str, int] = {}
    if live_monitor is not None:
        health = live_monitor.health_report().verdict
        monitor_violations = live_monitor.invariant_violations()
        monitor_breakdown = {
            name: count
            for name, count in sorted(live_monitor.violations.items())
            if name != "lossless_delivery"
        }
    return DegradedReport(
        offered=stats.offered,
        egressed=stats.egressed,
        dropped=stats.dropped,
        unaccounted=stats.offered - stats.egressed - stats.dropped,
        drops_by_reason=dict(stats.drops_by_reason),
        order_violations=violations,
        violating_states=sorted(violating),
        stats=stats,
        health=health,
        monitor_violations=monitor_violations,
        monitor_breakdown=monitor_breakdown,
    )


def check_equivalence(
    program: CompiledProgram,
    trace: List[DataPacket],
    config: Optional[MP5Config] = None,
    max_ticks: Optional[int] = None,
) -> EquivalenceReport:
    """Run ``trace`` through both switches and compare final state.

    The reference single pipeline runs at k times the per-pipeline clock
    (§2.2), so MP5 arrival ticks are scaled accordingly for it.
    """
    config = config or MP5Config()
    reference = BanzaiPipeline(program).run(
        reference_trace(trace, config.num_pipelines), record_access_order=True
    )
    switch = MP5Switch(program, config)
    switch.run(trace, max_ticks=max_ticks, record_access_order=True)
    return compare_runs(program, reference, switch)
