"""One-shot reproduction: regenerate every table and figure into files.

``run_all`` executes Table 1, the §4.3.2 microbenchmarks, all four
Figure 7 sweeps and Figure 8, writes each rendered table to
``<out>/<artifact>.txt`` plus a machine-readable ``results.json``, and
returns the combined report. The CLI exposes it as
``python -m repro reproduce [--out DIR] [--scale small|full]``.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict
from pathlib import Path
from typing import Callable, Dict, Optional

from ..mp5 import DEFAULT_ENGINE, ENGINES
from .microbench import MicrobenchSettings, render_microbench, run_d2, run_d3, run_d4
from .realapps import RealAppSettings, render_figure8, run_figure8
from .sensitivity import (
    DEFAULTS,
    SweepSettings,
    render_sweep,
    sweep_packet_size,
    sweep_pipelines,
    sweep_register_size,
    sweep_stateful_stages,
)
from .table1 import render_table1, run_table1

SCALES = {
    "tiny": dict(num_packets=600, seeds=(0,), micro_seeds=(0,)),  # CI smoke
    "small": dict(num_packets=2000, seeds=(0,), micro_seeds=(0, 1)),
    "full": dict(num_packets=5000, seeds=(0, 1), micro_seeds=tuple(range(10))),
    # Statistically heavier tier enabled by the vector engine: 50k-packet
    # streams, multi-seed. The microbenchmarks keep a smaller stream --
    # D4's rows record the access order, which falls back to the fast
    # engine, and the re-circulation baseline is a scalar simulator, so
    # 50k packets there would dominate the wall clock.
    "large": dict(
        num_packets=50000,
        seeds=(0, 1),
        micro_seeds=(0,),
        micro_packets=5000,
        engine="vector",
    ),
    # Million-packet tier: Figure 8 streams 1M packets per (app, k,
    # seed) point through the vector engine. The Figure 7 sweeps stay
    # at 50k -- their cost scales with the pipeline sweep (k=16
    # quadruples the stream) and the statistics converge well before
    # 1M -- as do the microbenchmarks, for the reasons above.
    "xlarge": dict(
        num_packets=1_000_000,
        seeds=(0,),
        micro_seeds=(0,),
        micro_packets=5000,
        sensitivity_packets=50_000,
        engine="vector",
    ),
}


def _observability_run(
    out: Path,
    knobs: Dict[str, object],
    engine: str = DEFAULT_ENGINE,
) -> Dict[str, object]:
    """One instrumented sensitivity run: trace + metrics + stall summary.

    Runs the §4.3.3 default configuration on the selected ``engine``
    with a :class:`TraceRecorder`, :class:`MetricsRegistry`, and
    :class:`InvariantMonitor` attached, and writes ``trace.json``
    (Chrome trace_event format, one lane per pipeline x stage — open in
    Perfetto), ``trace.jsonl``, ``trace_canonical.json`` (the
    order-independent :func:`canonical_form`, diffable across engines),
    ``metrics.json``, ``alerts.jsonl``, and ``trace_summary.txt`` into
    ``out``. The vector engine feeds the same sinks from its epoch
    schedule, and every recorder writes one within-tick order, so all
    six files and the returned block that lands in ``results.json`` are
    byte-identical across engines.
    """
    from ..mp5.config import MP5Config
    from ..obs import (
        InvariantMonitor,
        MetricsRegistry,
        TraceRecorder,
        canonical_form,
        render_trace_summary,
        summarize_trace,
        write_chrome,
        write_jsonl,
    )
    from ..workloads.synthetic import make_sensitivity_program, sensitivity_trace

    params = dict(DEFAULTS)
    program = make_sensitivity_program(
        num_stateful=params["num_stateful"],
        register_size=params["register_size"],
        num_stages=params["num_stages"],
    )
    trace = sensitivity_trace(
        int(knobs["num_packets"]),
        params["num_pipelines"],
        params["num_stateful"],
        params["register_size"],
        num_ports=params["num_ports"],
    )
    recorder = TraceRecorder()
    metrics = MetricsRegistry(window=100)
    monitor = InvariantMonitor()
    stats, _ = ENGINES[engine](
        program,
        trace,
        MP5Config(num_pipelines=params["num_pipelines"]),
        recorder=recorder,
        metrics=metrics,
        monitor=monitor,
    )
    write_chrome(recorder.events, out / "trace.json")
    write_jsonl(recorder.events, out / "trace.jsonl")
    (out / "trace_canonical.json").write_text(
        json.dumps(canonical_form(recorder.events), sort_keys=True) + "\n"
    )
    metrics.save(out / "metrics.json")
    health = monitor.health_report()
    monitor.alerts.save(
        out / "alerts.jsonl",
        meta={"ticks": stats.ticks, "verdict": health.verdict},
    )
    summary_text = render_trace_summary(summarize_trace(recorder.events))
    (out / "trace_summary.txt").write_text(summary_text + "\n")
    return {
        "trace": "trace.json",
        "trace_jsonl": "trace.jsonl",
        "trace_canonical": "trace_canonical.json",
        "metrics": "metrics.json",
        "alerts": "alerts.jsonl",
        "trace_summary": "trace_summary.txt",
        "events": len(recorder.events),
        "health": health.to_dict(),
    }


def run_all(
    out_dir: Optional[str] = None,
    scale: str = "full",
    progress: Optional[Callable[[str], None]] = None,
    jobs: Optional[int] = None,
    observe: bool = False,
    engine: Optional[str] = None,
) -> Dict[str, str]:
    """Regenerate every artifact; returns {artifact: rendered text}.

    When ``out_dir`` is given, writes one ``.txt`` per artifact and a
    ``results.json`` with the structured numbers. ``jobs`` fans the
    §4.3.2 microbenchmarks, the Figure 7 sweeps and Figure 8 out over
    worker processes (see :mod:`repro.harness.parallel`); artifacts are
    identical at any job count, so ``results.json`` can be diffed across
    serial and parallel runs. ``observe`` additionally records one
    instrumented run (trace, metrics, monitor alerts, stall summary) on
    the selected engine into ``out_dir`` — off by default so
    ``results.json`` stays byte-identical with earlier releases. The vector engine feeds the
    same sinks from its epoch schedule, so every instrumented artifact
    also diffs clean across engines.
    ``engine`` selects the simulation engine for every MP5 run of the
    microbenchmarks, the Figure 7 sweeps and Figure 8
    (``dense``/``fast``/``vector``; default: the scale's preference —
    ``vector`` at ``scale=large``/``xlarge``, else ``DEFAULT_ENGINE``).
    All engines produce identical numbers, so the choice never appears
    in ``results.json`` and outputs diff clean across engines.
    """
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {sorted(SCALES)}")
    knobs = SCALES[scale]
    if engine is None:
        engine = str(knobs.get("engine", DEFAULT_ENGINE))
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {sorted(ENGINES)}")
    say = progress or (lambda _msg: None)

    sweep_settings = SweepSettings(
        num_packets=int(
            knobs.get("sensitivity_packets", knobs["num_packets"])
        ),
        seeds=knobs["seeds"],
        engine=engine,
    )
    micro_settings = MicrobenchSettings(
        num_packets=int(knobs.get("micro_packets", knobs["num_packets"])),
        seeds=knobs["micro_seeds"],
        engine=engine,
    )
    app_settings = RealAppSettings(
        num_packets=knobs["num_packets"],
        seeds=knobs["seeds"],
        engine=engine,
    )

    artifacts: Dict[str, str] = {}
    structured: Dict[str, object] = {"scale": scale}

    say("Table 1 (area/clock/SRAM)")
    cells = run_table1()
    artifacts["table1"] = render_table1(cells)
    structured["table1"] = [asdict(c) for c in cells]

    say("§4.3.2 microbenchmarks (D2/D3/D4)")
    started = time.time()
    d2 = run_d2(micro_settings, jobs=jobs)
    d4 = run_d4(micro_settings, jobs=jobs)
    d3 = run_d3(micro_settings, jobs=jobs)
    artifacts["microbench"] = render_microbench(d2, d4, d3)
    structured["d2"] = [asdict(r) for r in d2]
    structured["d3"] = asdict(d3)
    structured["d4"] = asdict(d4)
    say(f"  done in {time.time() - started:.0f}s")

    for panel, runner in (
        ("fig7a", sweep_pipelines),
        ("fig7b", sweep_stateful_stages),
        ("fig7c", sweep_register_size),
        ("fig7d", sweep_packet_size),
    ):
        say(f"Figure {panel[-2:]}")
        points = runner(sweep_settings, jobs=jobs)
        artifacts[panel] = render_sweep(points, panel[-2:])
        structured[panel] = [asdict(p) for p in points]

    say("Figure 8 (real applications)")
    fig8 = run_figure8(settings=app_settings, jobs=jobs)
    artifacts["fig8"] = render_figure8(fig8)
    structured["fig8"] = {
        app: [asdict(p) for p in points] for app, points in fig8.items()
    }

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in artifacts.items():
            (out / f"{name}.txt").write_text(text + "\n")
        if observe:
            say("observability run (trace + metrics)")
            structured["observability"] = _observability_run(
                out, knobs, engine=engine
            )
        (out / "results.json").write_text(json.dumps(structured, indent=2))
        say(f"wrote {len(artifacts)} artifacts to {out}/")
    elif observe:
        raise ValueError("observe=True needs out_dir to write the trace into")
    return artifacts
