"""Figure 8 (§4.4): real applications under realistic traffic.

For each of flowlet switching, CONGA, WFQ and the network sequencer:
bimodal 200 B / 1400 B packet sizes, web-search flow sizes, and a sweep
over the number of pipelines. The paper reports line-rate throughput for
every application and pipeline count, with bounded per-stage queues
(max 11 / 8 / 7 / 7 packets).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..apps import FIGURE8_APPS, Application
from ..mp5 import DEFAULT_ENGINE, ENGINES
from ..mp5.config import MP5Config
from .parallel import map_cells
from .report import format_table

# Up to Tofino-2-class parallelism. Beyond k=8 the scalar-register
# applications (CONGA, WFQ, sequencer) hit the fundamental single-state
# processing limit of §3.5.2 once k * 64B / mean-packet-size exceeds one
# packet per clock; tests cover that regime explicitly.
PIPELINE_SWEEP = (1, 2, 4, 8)


@dataclass
class RealAppPoint:
    app: str
    num_pipelines: int
    throughput: float
    max_queue_depth: int
    wasted_slots: int
    dropped: int


@dataclass
class RealAppSettings:
    num_packets: int = 6000
    seeds: Sequence[int] = (0, 1)
    num_ports: int = 64
    max_ticks: Optional[int] = None
    fifo_capacity: Optional[int] = None  # None = adaptive (no loss), as §4.3.1
    engine: str = DEFAULT_ENGINE  # a repro.mp5.ENGINES name


def _app_run(cell, seed: int) -> tuple:
    """One (application, pipeline count, seed) simulation. The cell
    carries the :class:`Application` itself, so with ``jobs > 1`` it
    must pickle (every catalog application does)."""
    app, k, settings = cell
    program = app.compile()
    trace = app.workload(
        settings.num_packets,
        k,
        seed=seed,
        num_ports=settings.num_ports,
    )
    stats, _ = ENGINES[settings.engine](
        program,
        trace,
        MP5Config(
            num_pipelines=k,
            num_ports=settings.num_ports,
            fifo_capacity=settings.fifo_capacity,
        ),
        max_ticks=settings.max_ticks,
    )
    return (
        stats.throughput_normalized(),
        stats.max_queue_depth,
        stats.wasted_slots,
        stats.dropped,
    )


def _app_points(
    apps: Sequence[Application],
    pipeline_counts: Sequence[int],
    settings: RealAppSettings,
    jobs: Optional[int],
) -> Dict[str, List[RealAppPoint]]:
    """Every (app, pipeline count) cell of ``apps`` as one grid
    (:func:`~repro.harness.parallel.map_cells`), grouped by app."""
    cells = [(app, k, settings) for app in apps for k in pipeline_counts]
    out: Dict[str, List[RealAppPoint]] = {}
    for (app, k, _), rows in zip(
        cells, map_cells(_app_run, cells, settings.seeds, jobs=jobs)
    ):
        out.setdefault(app.name, []).append(
            RealAppPoint(
                app=app.name,
                num_pipelines=k,
                throughput=float(np.mean([r[0] for r in rows])),
                max_queue_depth=int(np.max([r[1] for r in rows])),
                wasted_slots=int(np.max([r[2] for r in rows])),
                dropped=int(np.sum([r[3] for r in rows])),
            )
        )
    return out


def run_application(
    app: Application,
    pipeline_counts: Sequence[int] = PIPELINE_SWEEP,
    settings: Optional[RealAppSettings] = None,
    jobs: Optional[int] = None,
) -> List[RealAppPoint]:
    """Sweep one application over pipeline counts."""
    settings = settings or RealAppSettings()
    points = _app_points([app], pipeline_counts, settings, jobs)
    return points.get(app.name, [])


def run_figure8(
    pipeline_counts: Sequence[int] = PIPELINE_SWEEP,
    settings: Optional[RealAppSettings] = None,
    jobs: Optional[int] = None,
) -> Dict[str, List[RealAppPoint]]:
    """All four Figure 8 panels, run as one grid so every (app,
    pipeline count, seed) simulation shares the workers."""
    settings = settings or RealAppSettings()
    return _app_points(FIGURE8_APPS, pipeline_counts, settings, jobs)


def render_figure8(results: Dict[str, List[RealAppPoint]]) -> str:
    """Render one table per Figure 8 panel."""
    sections = []
    panel = dict(flowlet="8a", conga="8b", wfq="8c", sequencer="8d")
    for app, points in results.items():
        rows = [
            (p.num_pipelines, p.throughput, p.max_queue_depth, p.dropped)
            for p in points
        ]
        sections.append(
            format_table(
                ["pipelines", "throughput", "max queue", "drops"],
                rows,
                title=f"Figure {panel.get(app, '?')}: {app}",
            )
        )
    return "\n\n".join(sections)
