"""Chaos sweep: throughput and recovery time under fault injection.

For each fault kind in :data:`repro.faults.FAULT_KINDS` the sweep runs
the §4.3.3 default configuration under deterministically generated fault
schedules of increasing *intensity* (0 = no fault, 1 = the harshest
shipped setting) and reports, per (kind, intensity):

* steady-state normalized throughput (same metric as Figure 7),
* delivery ratio and drops by reason,
* **recovery ticks** — extra drain time versus the fault-free baseline
  for the same seeds, i.e. how long the switch needs to work off the
  backlog the fault created.

Every schedule is a pure function of (kind, intensity, settings), every
simulation of (schedule, seed); results are byte-identical at any
``--jobs`` count (see :mod:`repro.harness.parallel`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..faults import (
    DegradationPolicy,
    FAULT_KINDS,
    FaultEvent,
    FaultSchedule,
    KIND_CROSSBAR,
    KIND_FIFO,
    KIND_PHANTOM,
    KIND_STALL,
)
from ..mp5 import run_mp5
from ..mp5.config import MP5Config
from ..obs.health import worst_verdict
from ..obs.monitor import InvariantMonitor
from ..workloads.synthetic import make_sensitivity_program, sensitivity_trace
from .parallel import map_cells
from .report import format_table

BASELINE_KIND = "none"


@dataclass
class ChaosSettings:
    """Scale knobs for the chaos sweep (tests and ``--quick`` shrink
    them; the defaults finish in well under a minute)."""

    num_packets: int = 2000
    seeds: Sequence[int] = (0, 1, 2)
    pattern: str = "uniform"
    num_pipelines: int = 4
    num_stateful: int = 3
    register_size: int = 64
    num_stages: int = 8
    fifo_capacity: int = 16
    intensities: Sequence[float] = (0.25, 0.5, 1.0)
    kinds: Sequence[str] = FAULT_KINDS
    max_ticks_factor: int = 40  # safety cap: ticks <= factor * packets / k
    fault_seed: int = 0  # seeds the schedules' hash-based decisions


@dataclass
class ChaosPoint:
    """Aggregated result of one (fault kind, intensity) cell."""

    kind: str
    intensity: float
    throughput: float
    delivery_ratio: float
    recovery_ticks: float
    drops: float
    phantoms_lost: float
    remap_moves: float
    seeds: int
    # Online-monitor verdicts (worst across seeds; -1 = no critical alert).
    health: str = "ok"
    first_violation_tick: int = -1


def schedule_for(
    kind: str, intensity: float, settings: ChaosSettings
) -> FaultSchedule:
    """The deterministic fault schedule for one sweep cell.

    The fault window opens after one tenth of the estimated run and its
    severity scales linearly with ``intensity``; intensity 0 (or kind
    ``"none"``) is the empty schedule, the fault-free baseline.
    """
    if kind == BASELINE_KIND or intensity <= 0:
        return FaultSchedule(
            faults=[], degradation=DegradationPolicy(), seed=settings.fault_seed
        )
    horizon = max(20, settings.num_packets // max(settings.num_pipelines, 1))
    start = max(1, horizon // 10)
    duration = max(5, int(horizon * 0.5 * intensity))
    if kind == KIND_STALL:
        event = FaultEvent(
            KIND_STALL,
            start=start,
            duration=duration,
            pipeline=1,
            service_rate=max(0.0, 0.5 - 0.5 * intensity),
        )
    elif kind == KIND_PHANTOM:
        event = FaultEvent(
            KIND_PHANTOM,
            start=start,
            duration=duration,
            loss_rate=0.5 * intensity,
            delay=2,
            delay_rate=0.5 * intensity,
        )
    elif kind == KIND_CROSSBAR:
        event = FaultEvent(
            KIND_CROSSBAR, start=start, duration=duration, pipeline=1
        )
    elif kind == KIND_FIFO:
        capacity = max(1, int(settings.fifo_capacity * (1 - 0.75 * intensity)))
        event = FaultEvent(
            KIND_FIFO, start=start, duration=duration, capacity=capacity
        )
    else:
        raise ValueError(f"unknown fault kind {kind!r}")
    return FaultSchedule(
        faults=[event],
        degradation=DegradationPolicy(),
        seed=settings.fault_seed,
    )


def _chaos_run(
    cell, seed: int
) -> Tuple[float, float, int, int, int, int, str, int]:
    """One (kind, intensity, seed) simulation.

    Module-level and driven by plain data so it can cross a process
    boundary (see :func:`repro.harness.sensitivity._seed_point`); the
    result is a pure function of the task regardless of which worker
    runs it. An :class:`InvariantMonitor` rides along and its health
    verdict and first critical-alert tick travel back as picklable
    scalars.
    """
    settings, kind, intensity = cell
    program = make_sensitivity_program(
        num_stateful=settings.num_stateful,
        register_size=settings.register_size,
        num_stages=settings.num_stages,
    )
    config = MP5Config(
        num_pipelines=settings.num_pipelines,
        pipeline_depth=settings.num_stages,
        fifo_capacity=settings.fifo_capacity,
    )
    trace = sensitivity_trace(
        settings.num_packets,
        settings.num_pipelines,
        settings.num_stateful,
        settings.register_size,
        pattern=settings.pattern,
        seed=seed,
    )
    max_ticks = settings.max_ticks_factor * max(
        1, settings.num_packets // max(settings.num_pipelines, 1)
    )
    schedule = schedule_for(kind, intensity, settings)
    monitor = InvariantMonitor()
    stats, _ = run_mp5(
        program, trace, config, max_ticks=max_ticks, faults=schedule,
        monitor=monitor,
    )
    health = monitor.health_report()
    first_tick = health.first_critical_tick
    return (
        stats.throughput_normalized(),
        stats.delivery_ratio,
        stats.ticks,
        stats.dropped,
        stats.phantoms_lost,
        stats.emergency_remap_moves,
        health.verdict,
        -1 if first_tick is None else first_tick,
    )


def run_chaos_sweep(
    settings: Optional[ChaosSettings] = None,
    jobs: Optional[int] = None,
) -> List[ChaosPoint]:
    """Run the full kinds x intensities grid plus the fault-free
    baseline; returns one :class:`ChaosPoint` per cell, baseline first.

    Cells are enumerated baseline-first then kinds-major / intensities
    and run as one grid (:func:`~repro.harness.parallel.map_cells`), so
    the aggregation is identical at any job count.
    """
    settings = settings or ChaosSettings()
    cells: List[Tuple[ChaosSettings, str, float]] = [
        (settings, BASELINE_KIND, 0.0)
    ]
    for kind in settings.kinds:
        for intensity in settings.intensities:
            cells.append((settings, kind, float(intensity)))
    per_cell = map_cells(_chaos_run, cells, settings.seeds, jobs=jobs)
    baseline_ticks = float(np.mean([r[2] for r in per_cell[0]]))
    points = []
    for (_, kind, intensity), rows in zip(cells, per_cell):
        first_ticks = [r[7] for r in rows if r[7] >= 0]
        points.append(
            ChaosPoint(
                kind=kind,
                intensity=intensity,
                throughput=float(np.mean([r[0] for r in rows])),
                delivery_ratio=float(np.mean([r[1] for r in rows])),
                recovery_ticks=float(
                    np.mean([r[2] for r in rows]) - baseline_ticks
                ),
                drops=float(np.mean([r[3] for r in rows])),
                phantoms_lost=float(np.mean([r[4] for r in rows])),
                remap_moves=float(np.mean([r[5] for r in rows])),
                seeds=len(rows),
                health=worst_verdict(*[r[6] for r in rows]),
                first_violation_tick=min(first_ticks) if first_ticks else -1,
            )
        )
    return points


def render_chaos(points: List[ChaosPoint]) -> str:
    """Render the sweep as a table (throughput / delivery / recovery /
    online-monitor health)."""
    rows = [
        (
            p.kind,
            f"{p.intensity:.2f}",
            f"{p.throughput:.3f}",
            f"{p.delivery_ratio:.3f}",
            f"{p.recovery_ticks:+.1f}",
            f"{p.drops:.1f}",
            f"{p.remap_moves:.1f}",
            p.health,
            "-" if p.first_violation_tick < 0 else str(p.first_violation_tick),
        )
        for p in points
    ]
    return format_table(
        [
            "fault",
            "intensity",
            "throughput",
            "delivery",
            "recovery",
            "drops",
            "moves",
            "health",
            "first@",
        ],
        rows,
        title="Chaos sweep: degradation and recovery vs fault intensity",
    )
