"""Figure 7 (§4.3.3): throughput sensitivity to switch parameters.

Four sweeps, each varying one parameter with the rest at their §4.3.1
defaults (64 ports, 16 stages, 4 pipelines, 4 stateful stages, register
size 512, 64 B packets, line-rate input, remap every 100 cycles):

* 7a — number of pipelines in {1, 2, 4, 8, 16}
* 7b — number of stateful stages in {0, 2, 4, 6, 8, 10}
* 7c — register size in {1, 4, 16, 64, 256, 1024, 4096}
* 7d — packet size in {64, 128, 256, 512, 1024, 1500} bytes

Every point runs MP5 and the ideal-MP5 baseline over several independent
packet streams and reports mean normalized throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..mp5 import DEFAULT_ENGINE, ENGINES
from ..mp5.config import MP5Config
from ..workloads.synthetic import make_sensitivity_program, sensitivity_trace
from .parallel import map_cells
from .report import ascii_chart, format_table

DEFAULTS = dict(
    num_pipelines=4,
    num_stateful=4,
    register_size=512,
    packet_size=64,
    num_stages=16,
    num_ports=64,
)

PIPELINE_SWEEP = (1, 2, 4, 8, 16)
STATEFUL_SWEEP = (0, 2, 4, 6, 8, 10)
REGISTER_SWEEP = (1, 4, 16, 64, 256, 1024, 4096)
PACKET_SIZE_SWEEP = (64, 128, 256, 512, 1024, 1500)


@dataclass
class SensitivityPoint:
    parameter: str
    value: int
    pattern: str
    mp5_throughput: float
    ideal_throughput: float
    seeds: int

    @property
    def gap_to_ideal(self) -> float:
        return self.ideal_throughput - self.mp5_throughput


@dataclass
class SweepSettings:
    """Scale knobs: the defaults finish a full figure in minutes; tests
    shrink them."""

    num_packets: int = 6000
    seeds: Sequence[int] = (0, 1, 2)
    pattern: str = "uniform"
    max_ticks_factor: int = 40  # safety cap: ticks <= factor * packets / k
    engine: str = DEFAULT_ENGINE  # a repro.mp5.ENGINES name


def _seed_point(cell, seed: int) -> tuple:
    """One (parameter value, seed) simulation pair: MP5 plus ideal-MP5.

    Module-level and driven by plain data so it can cross a process
    boundary; the seed travels in the task, making the result a pure
    function of the arguments regardless of which worker runs it.
    """
    settings, overrides = cell
    params = dict(DEFAULTS)
    params.update(overrides)
    program = make_sensitivity_program(
        num_stateful=params["num_stateful"],
        register_size=params["register_size"],
        num_stages=params["num_stages"],
    )
    k = params["num_pipelines"]
    # Hold the measurement window constant in *ticks*, not packets: a
    # wider switch receives proportionally more packets per tick, and the
    # remap heuristic needs a fixed number of epochs to converge.
    num_packets = settings.num_packets * max(1, k // DEFAULTS["num_pipelines"])
    max_ticks = settings.max_ticks_factor * max(1, num_packets // max(k, 1))
    scores = []
    for config in (
        MP5Config(num_pipelines=k, pipeline_depth=params["num_stages"]),
        MP5Config.ideal(num_pipelines=k, pipeline_depth=params["num_stages"]),
    ):
        trace = sensitivity_trace(
            num_packets,
            k,
            params["num_stateful"],
            params["register_size"],
            pattern=settings.pattern,
            packet_size=params["packet_size"],
            seed=seed,
            num_ports=params["num_ports"],
        )
        stats, _ = ENGINES[settings.engine](
            program,
            trace,
            config,
            max_ticks=max_ticks,
        )
        scores.append(stats.throughput_normalized())
    return scores[0], scores[1]


def _make_point(
    parameter: str,
    value: int,
    settings: SweepSettings,
    results: Sequence[tuple],
) -> SensitivityPoint:
    """Aggregate per-seed (mp5, ideal) scores exactly as the serial loop
    always has: ``np.mean`` over the seed-ordered lists."""
    return SensitivityPoint(
        parameter=parameter,
        value=value,
        pattern=settings.pattern,
        mp5_throughput=float(np.mean([r[0] for r in results])),
        ideal_throughput=float(np.mean([r[1] for r in results])),
        seeds=len(list(settings.seeds)),
    )


def _sweep(
    parameter: str,
    values: Sequence[int],
    settings: SweepSettings,
    override_key: str,
    jobs: Optional[int],
) -> List[SensitivityPoint]:
    """Run one Figure 7 panel as a values x seeds grid
    (:func:`~repro.harness.parallel.map_cells`)."""
    cells = [(settings, {override_key: value}) for value in values]
    per_value = map_cells(_seed_point, cells, settings.seeds, jobs=jobs)
    return [
        _make_point(parameter, value, settings, rows)
        for value, rows in zip(values, per_value)
    ]


def sweep_pipelines(
    settings: Optional[SweepSettings] = None,
    values: Sequence[int] = PIPELINE_SWEEP,
    jobs: Optional[int] = None,
) -> List[SensitivityPoint]:
    """Figure 7a: throughput vs number of pipelines."""
    settings = settings or SweepSettings()
    return _sweep("pipelines", values, settings, "num_pipelines", jobs)


def sweep_stateful_stages(
    settings: Optional[SweepSettings] = None,
    values: Sequence[int] = STATEFUL_SWEEP,
    jobs: Optional[int] = None,
) -> List[SensitivityPoint]:
    """Figure 7b: throughput vs number of stateful stages."""
    settings = settings or SweepSettings()
    return _sweep("stateful_stages", values, settings, "num_stateful", jobs)


def sweep_register_size(
    settings: Optional[SweepSettings] = None,
    values: Sequence[int] = REGISTER_SWEEP,
    jobs: Optional[int] = None,
) -> List[SensitivityPoint]:
    """Figure 7c: throughput vs register array size."""
    settings = settings or SweepSettings()
    return _sweep("register_size", values, settings, "register_size", jobs)


def sweep_packet_size(
    settings: Optional[SweepSettings] = None,
    values: Sequence[int] = PACKET_SIZE_SWEEP,
    jobs: Optional[int] = None,
) -> List[SensitivityPoint]:
    """Figure 7d: throughput vs packet size."""
    settings = settings or SweepSettings()
    return _sweep("packet_size", values, settings, "packet_size", jobs)


def render_sweep(points: List[SensitivityPoint], figure: str) -> str:
    """Render a sweep as a table plus an ASCII bar chart."""
    rows = [
        (p.value, p.mp5_throughput, p.ideal_throughput, p.gap_to_ideal)
        for p in points
    ]
    parameter = points[0].parameter if points else "value"
    table = format_table(
        [parameter, "MP5", "ideal", "gap"],
        rows,
        title=f"Figure {figure}: normalized throughput vs {parameter} "
        f"({points[0].pattern if points else ''} access)",
    )
    chart = ascii_chart(
        [p.value for p in points], [p.mp5_throughput for p in points]
    )
    return f"{table}\n\n{chart}"
