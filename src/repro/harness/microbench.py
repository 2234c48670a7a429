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
from ..mp5 import run_mp5
from ..mp5.config import MP5Config
from ..mp5.stats import c1_metrics
from ..workloads.synthetic import make_sensitivity_program, sensitivity_trace
from ..workloads.traffic import reference_trace
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
    max_ticks: Optional[int] = None


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
    with_d4_displaced: List[float] = None
    without_d4_displaced: List[float] = None
    recirculation_displaced: List[float] = None


@dataclass
class D3Result:
    mp5: List[float]
    recirculation: List[float]
    single_pipeline_state: List[float]
    avg_recirculations: List[float]


def _trace(settings: MicrobenchSettings, pattern: str, seed: int):
    return sensitivity_trace(
        settings.num_packets,
        settings.num_pipelines,
        settings.num_stateful,
        settings.register_size,
        pattern=pattern,
        seed=seed,
    )


def run_d2(settings: Optional[MicrobenchSettings] = None) -> List[D2Result]:
    """Dynamic vs static sharding (paper: 1.1-3.3x on skewed, 1-1.5x on
    uniform access)."""
    settings = settings or MicrobenchSettings()
    program = make_sensitivity_program(
        settings.num_stateful, settings.register_size
    )
    results = []
    for pattern in ("skewed", "uniform"):
        ratios = []
        for seed in settings.seeds:
            trace = _trace(settings, pattern, seed)
            dynamic, _ = run_mp5(
                program,
                trace,
                MP5Config(num_pipelines=settings.num_pipelines),
                max_ticks=settings.max_ticks,
            )
            static, _ = run_mp5(
                program,
                trace,
                static_shard_config(
                    num_pipelines=settings.num_pipelines, seed=seed
                ),
                max_ticks=settings.max_ticks,
            )
            denominator = static.throughput_normalized() or 1e-9
            ratios.append(dynamic.throughput_normalized() / denominator)
        results.append(D2Result(pattern=pattern, ratios=ratios))
    return results


def run_d4(settings: Optional[MicrobenchSettings] = None) -> D4Result:
    """C1 violations with D4, without D4, and with re-circulation."""
    settings = settings or MicrobenchSettings()
    program = make_sensitivity_program(
        settings.num_stateful, settings.register_size
    )
    with_d4, without_d4, recirc = [], [], []
    with_d4_disp, without_d4_disp, recirc_disp = [], [], []
    for seed in settings.seeds:
        trace = _trace(settings, "skewed", seed)
        reference = BanzaiPipeline(program).run(
            reference_trace(trace, settings.num_pipelines),
            record_access_order=True,
        )
        n = len(trace)

        stats, _ = run_mp5(
            program,
            trace,
            MP5Config(num_pipelines=settings.num_pipelines),
            max_ticks=settings.max_ticks,
            record_access_order=True,
        )
        report = c1_metrics(reference.access_order, stats.access_order, n)
        with_d4.append(report.inversion_fraction)
        with_d4_disp.append(report.displaced_fraction)

        stats, _ = run_mp5(
            program,
            trace,
            no_phantom_config(num_pipelines=settings.num_pipelines),
            max_ticks=settings.max_ticks,
            record_access_order=True,
        )
        report = c1_metrics(reference.access_order, stats.access_order, n)
        without_d4.append(report.inversion_fraction)
        without_d4_disp.append(report.displaced_fraction)

        stats, _switch = run_recirculation(
            program,
            trace,
            RecircConfig(num_pipelines=settings.num_pipelines, seed=seed),
            max_ticks=settings.max_ticks,
            record_access_order=True,
        )
        report = c1_metrics(reference.access_order, stats.access_order, n)
        recirc.append(report.inversion_fraction)
        recirc_disp.append(report.displaced_fraction)
    return D4Result(
        with_d4=with_d4,
        without_d4=without_d4,
        recirculation=recirc,
        with_d4_displaced=with_d4_disp,
        without_d4_displaced=without_d4_disp,
        recirculation_displaced=recirc_disp,
    )


def run_d3(settings: Optional[MicrobenchSettings] = None) -> D3Result:
    """Steering vs re-circulation vs the naive single-pipeline design."""
    settings = settings or MicrobenchSettings()
    program = make_sensitivity_program(
        settings.num_stateful, settings.register_size
    )
    mp5_scores, recirc_scores, naive_scores, recirc_counts = [], [], [], []
    for seed in settings.seeds:
        trace = _trace(settings, "skewed", seed)
        stats, _ = run_mp5(
            program,
            trace,
            MP5Config(num_pipelines=settings.num_pipelines),
            max_ticks=settings.max_ticks,
        )
        mp5_scores.append(stats.throughput_normalized())

        stats, switch = run_recirculation(
            program,
            trace,
            RecircConfig(num_pipelines=settings.num_pipelines, seed=seed),
            max_ticks=settings.max_ticks,
        )
        recirc_scores.append(stats.throughput_normalized())
        recirc_counts.append(switch.avg_recirculations)

        stats, _ = run_single_pipeline_state(
            program,
            trace,
            MP5Config(num_pipelines=settings.num_pipelines),
            max_ticks=settings.max_ticks,
        )
        naive_scores.append(stats.throughput_normalized())
    return D3Result(
        mp5=mp5_scores,
        recirculation=recirc_scores,
        single_pipeline_state=naive_scores,
        avg_recirculations=recirc_counts,
    )


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
        )
    ]
    if d4.with_d4_displaced is not None:
        rows.append(
            (
                "C1 displaced packets",
                float(np.mean(d4.with_d4_displaced)),
                float(np.mean(d4.without_d4_displaced)),
                float(np.mean(d4.recirculation_displaced)),
            )
        )
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
