"""§4.3.2 microbenchmarks: the contribution of design principles D2-D4.

Three experiments over independent input streams at the default switch
configuration (4 pipelines, 4 stateful stages, register size 512, 64 B
packets at line rate):

* **D2** — dynamic vs static (compile-time random) sharding: throughput
  ratio per seed, for both skewed and uniform access patterns.
* **D4** — fraction of packets violating C1 with D4 (always 0), without
  D4, and on the re-circulating baseline.
* **D3** — throughput of the re-circulating baseline vs MP5 and vs the
  naive single-pipeline-state design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..banzai.pipeline import BanzaiPipeline
from ..baselines import (
    RecircConfig,
    no_phantom_config,
    run_recirculation,
    run_single_pipeline_state,
    static_shard_config,
)
from ..mp5 import DEFAULT_ENGINE, ENGINES
from ..mp5.config import MP5Config
from ..mp5.stats import c1_metrics
from ..workloads.synthetic import make_sensitivity_program, sensitivity_trace
from ..workloads.traffic import reference_trace
from .parallel import map_cells
from .report import format_table

DEFAULT_K = 4
DEFAULT_STATEFUL = 4
DEFAULT_REGSIZE = 512


@dataclass
class MicrobenchSettings:
    num_packets: int = 6000
    seeds: Sequence[int] = tuple(range(10))
    num_pipelines: int = DEFAULT_K
    num_stateful: int = DEFAULT_STATEFUL
    register_size: int = DEFAULT_REGSIZE
    engine: str = DEFAULT_ENGINE  # a repro.mp5.ENGINES name


@dataclass
class D2Result:
    pattern: str
    ratios: List[float]  # dynamic / static throughput per seed

    @property
    def min_ratio(self) -> float:
        return min(self.ratios)

    @property
    def max_ratio(self) -> float:
        return max(self.ratios)


@dataclass
class D4Result:
    """C1 violation fractions per seed, as (inversion, displaced) pairs.

    The headline numbers use the inversion-density reading (out-of-order
    access events / total accesses); the displaced-packet reading is kept
    alongside — see :class:`repro.mp5.stats.C1Report`.
    """

    with_d4: List[float]  # inversion fraction per seed (should be 0)
    without_d4: List[float]
    recirculation: List[float]
    with_d4_displaced: List[float]
    without_d4_displaced: List[float]
    recirculation_displaced: List[float]


@dataclass
class D3Result:
    mp5: List[float]
    recirculation: List[float]
    single_pipeline_state: List[float]
    avg_recirculations: List[float]


def _setup(settings: MicrobenchSettings, pattern: str, seed: int):
    """The program and one seed's trace. Every task builds its own, so
    a task is a pure function of its (cell, seed) arguments."""
    program = make_sensitivity_program(
        settings.num_stateful, settings.register_size
    )
    trace = sensitivity_trace(
        settings.num_packets,
        settings.num_pipelines,
        settings.num_stateful,
        settings.register_size,
        pattern=pattern,
        seed=seed,
    )
    return program, trace


def _columns(rows: Sequence[tuple]) -> List[List[float]]:
    """Per-seed result tuples, transposed into one list per field."""
    return [list(column) for column in zip(*rows)]


def _d2_seed(cell, seed: int) -> float:
    """One (pattern, seed) task: dynamic / static throughput."""
    settings, pattern = cell
    program, trace = _setup(settings, pattern, seed)
    run = ENGINES[settings.engine]
    k = settings.num_pipelines
    dynamic, _ = run(program, trace, MP5Config(num_pipelines=k))
    static, _ = run(program, trace, static_shard_config(num_pipelines=k, seed=seed))
    denominator = static.throughput_normalized() or 1e-9
    return dynamic.throughput_normalized() / denominator


def run_d2(
    settings: Optional[MicrobenchSettings] = None, jobs: Optional[int] = None
) -> List[D2Result]:
    """Dynamic vs static sharding (paper: 1.1-3.3x on skewed, 1-1.5x on
    uniform access)."""
    settings = settings or MicrobenchSettings()
    patterns = ("skewed", "uniform")
    cells = [(settings, pattern) for pattern in patterns]
    per_pattern = map_cells(_d2_seed, cells, settings.seeds, jobs=jobs)
    return [
        D2Result(pattern=pattern, ratios=ratios)
        for pattern, ratios in zip(patterns, per_pattern)
    ]


def _d4_seed(settings: MicrobenchSettings, seed: int) -> tuple:
    """One seed's C1 fractions in :class:`D4Result`'s field order: the
    inversion readings with D4, without D4 and with re-circulation, then
    the displaced readings."""
    program, trace = _setup(settings, "skewed", seed)
    k = settings.num_pipelines
    reference = BanzaiPipeline(program).run(
        reference_trace(trace, k), record_access_order=True
    )
    run = ENGINES[settings.engine]
    orders = [
        run(program, trace, config, record_access_order=True)[0].access_order
        for config in (MP5Config(num_pipelines=k), no_phantom_config(num_pipelines=k))
    ]
    stats, _ = run_recirculation(
        program,
        trace,
        RecircConfig(num_pipelines=k, seed=seed),
        record_access_order=True,
    )
    orders.append(stats.access_order)
    reports = [
        c1_metrics(reference.access_order, order, len(trace)) for order in orders
    ]
    return tuple(r.inversion_fraction for r in reports) + tuple(
        r.displaced_fraction for r in reports
    )


def run_d4(
    settings: Optional[MicrobenchSettings] = None, jobs: Optional[int] = None
) -> D4Result:
    """C1 violations with D4, without D4, and with re-circulation."""
    settings = settings or MicrobenchSettings()
    (rows,) = map_cells(_d4_seed, [settings], settings.seeds, jobs=jobs)
    return D4Result(*_columns(rows))


def _d3_seed(settings: MicrobenchSettings, seed: int) -> tuple:
    """One seed's throughputs (MP5, re-circulation, single-pipeline
    state) and re-circulations per packet."""
    program, trace = _setup(settings, "skewed", seed)
    k = settings.num_pipelines
    config = MP5Config(num_pipelines=k)
    mp5, _ = ENGINES[settings.engine](program, trace, config)
    recirc, switch = run_recirculation(
        program, trace, RecircConfig(num_pipelines=k, seed=seed)
    )
    naive, _ = run_single_pipeline_state(
        program, trace, config, engine=settings.engine
    )
    return (
        mp5.throughput_normalized(),
        recirc.throughput_normalized(),
        naive.throughput_normalized(),
        switch.avg_recirculations,
    )


def run_d3(
    settings: Optional[MicrobenchSettings] = None, jobs: Optional[int] = None
) -> D3Result:
    """Steering vs re-circulation vs the naive single-pipeline design."""
    settings = settings or MicrobenchSettings()
    (rows,) = map_cells(_d3_seed, [settings], settings.seeds, jobs=jobs)
    return D3Result(*_columns(rows))


def render_microbench(
    d2: List[D2Result], d4: D4Result, d3: D3Result
) -> str:
    """Render the three microbenchmark tables as text."""
    sections = []
    rows = [(r.pattern, r.min_ratio, r.max_ratio) for r in d2]
    sections.append(
        format_table(
            ["pattern", "min dyn/static", "max dyn/static"],
            rows,
            title="D2: dynamic vs static sharding throughput ratio",
        )
    )
    rows = [
        (
            "C1 inversion fraction",
            float(np.mean(d4.with_d4)),
            float(np.mean(d4.without_d4)),
            float(np.mean(d4.recirculation)),
        ),
        (
            "C1 displaced packets",
            float(np.mean(d4.with_d4_displaced)),
            float(np.mean(d4.without_d4_displaced)),
            float(np.mean(d4.recirculation_displaced)),
        ),
    ]
    sections.append(
        format_table(
            ["metric", "MP5 (D4)", "no D4", "recirculation"],
            rows,
            title="D4: preemptive order enforcement",
        )
    )
    rows = [
        (
            "throughput",
            float(np.mean(d3.mp5)),
            float(np.mean(d3.recirculation)),
            float(np.mean(d3.single_pipeline_state)),
        ),
        ("avg recirculations/pkt", "-", float(np.mean(d3.avg_recirculations)), "-"),
    ]
    sections.append(
        format_table(
            ["metric", "MP5", "recirculation", "single-pipe state"],
            rows,
            title="D3: inter-pipeline steering vs re-circulation",
        )
    )
    return "\n\n".join(sections)
