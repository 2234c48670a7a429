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

from ..apps import ALL_APPS, FIGURE8_APPS, Application
from ..mp5 import DEFAULT_ENGINE, ENGINES
from ..mp5.config import MP5Config
from .parallel import parallel_map
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


def _run_app_serial(
    app: Application, k: int, settings: RealAppSettings, seed: int
) -> tuple:
    """One (application, pipeline count, seed) simulation."""
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


def _app_seed_task(task) -> tuple:
    """Worker entry: the application travels by catalog name (an
    :class:`Application` carries a workload closure that may not
    pickle), so only names from :data:`~repro.apps.ALL_APPS` can run in
    workers; callers check that before fanning out."""
    app_name, k, settings, seed = task
    return _run_app_serial(ALL_APPS[app_name], k, settings, seed)


def _app_points(
    app: Application,
    pipeline_counts: Sequence[int],
    settings: RealAppSettings,
    jobs: Optional[int],
) -> List[RealAppPoint]:
    seeds = list(settings.seeds)
    if ALL_APPS.get(app.name) is app:
        tasks = [
            (app.name, k, settings, seed)
            for k in pipeline_counts
            for seed in seeds
        ]
        results = parallel_map(_app_seed_task, tasks, jobs=jobs)
    else:
        # An application outside the catalog cannot be named across a
        # process boundary; run it serially against the object itself.
        results = [
            _run_app_serial(app, k, settings, seed)
            for k in pipeline_counts
            for seed in seeds
        ]
    points = []
    for i, k in enumerate(pipeline_counts):
        chunk = results[i * len(seeds) : (i + 1) * len(seeds)]
        points.append(
            RealAppPoint(
                app=app.name,
                num_pipelines=k,
                throughput=float(np.mean([r[0] for r in chunk])),
                max_queue_depth=int(np.max([r[1] for r in chunk])),
                wasted_slots=int(np.max([r[2] for r in chunk])),
                dropped=int(np.sum([r[3] for r in chunk])),
            )
        )
    return points


def run_application(
    app: Application,
    pipeline_counts: Sequence[int] = PIPELINE_SWEEP,
    settings: Optional[RealAppSettings] = None,
    jobs: Optional[int] = None,
) -> List[RealAppPoint]:
    """Sweep one application over pipeline counts."""
    settings = settings or RealAppSettings()
    return _app_points(app, pipeline_counts, settings, jobs)


def run_figure8(
    pipeline_counts: Sequence[int] = PIPELINE_SWEEP,
    settings: Optional[RealAppSettings] = None,
    jobs: Optional[int] = None,
) -> Dict[str, List[RealAppPoint]]:
    """All four Figure 8 panels.

    With ``jobs`` set, every (app, pipeline count, seed) simulation
    across all four panels becomes one flat task list, maximizing
    worker occupancy instead of parallelizing panel-by-panel.
    """
    settings = settings or RealAppSettings()
    seeds = list(settings.seeds)
    tasks = [
        (app.name, k, settings, seed)
        for app in FIGURE8_APPS
        for k in pipeline_counts
        for seed in seeds
    ]
    results = parallel_map(_app_seed_task, tasks, jobs=jobs)
    per_app = len(pipeline_counts) * len(seeds)
    out: Dict[str, List[RealAppPoint]] = {}
    for a, app in enumerate(FIGURE8_APPS):
        chunk = results[a * per_app : (a + 1) * per_app]
        points = []
        for i, k in enumerate(pipeline_counts):
            sub = chunk[i * len(seeds) : (i + 1) * len(seeds)]
            points.append(
                RealAppPoint(
                    app=app.name,
                    num_pipelines=k,
                    throughput=float(np.mean([r[0] for r in sub])),
                    max_queue_depth=int(np.max([r[1] for r in sub])),
                    wasted_slots=int(np.max([r[2] for r in sub])),
                    dropped=int(np.sum([r[3] for r in sub])),
                )
            )
        out[app.name] = points
    return out


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
