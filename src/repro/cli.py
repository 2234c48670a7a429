"""Command-line interface: ``python -m repro <command>``.

Commands
--------

* ``programs``            — list bundled Domino programs
* ``compile <name|file>`` — compile and print the pipeline layout
* ``tac <name|file>``     — print the three-address code
* ``run <name>``          — simulate a program on MP5 and print stats
* ``trace-summary <file>`` — analyze a trace written with ``run --trace``
* ``monitor-report <file>`` — health timeline from ``run --alerts-out``
* ``top``                 — live dashboard over a running ``serve`` daemon
* ``export-metrics <file>`` — convert ``metrics.json`` to OpenMetrics text
* ``equiv <name>``        — run the functional-equivalence check
* ``faults <generate|validate|describe>`` — fault-schedule utilities
* ``chaos``               — fault-injection sweep (throughput + recovery)
* ``table1``              — regenerate Table 1
* ``fig7 <a|b|c|d>``      — regenerate one Figure 7 panel
* ``fig8``                — regenerate Figure 8
* ``micro <d2|d3|d4>``    — run one §4.3.2 microbenchmark
* ``reproduce``           — regenerate every artifact into a directory

Programs given by name use the bundled catalog; a path ending in ``.c``
or ``.domino`` is read from disk.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

import numpy as np

from .compiler import compile_program, preprocess
from .domino import analyze, get_program, parse, program_names
from .equivalence import check_equivalence
from .errors import ConfigError
from .faults import FAULT_KINDS, FaultSchedule, generate_schedule
from .harness import (
    ChaosSettings,
    MicrobenchSettings,
    render_chaos,
    run_chaos_sweep,
    run_all,
    RealAppSettings,
    SweepSettings,
    render_figure8,
    render_sweep,
    render_table1,
    run_d2,
    run_d3,
    run_d4,
    run_figure8,
    sweep_packet_size,
    sweep_pipelines,
    sweep_register_size,
    sweep_stateful_stages,
)
from .mp5 import DEFAULT_ENGINE, ENGINES, MP5Config, run_mp5
from .obs import (
    AlertLog,
    InvariantMonitor,
    MetricsRegistry,
    PhaseProfiler,
    TraceRecorder,
    load_trace,
    render_alerts_section,
    render_epoch_section,
    render_health_timeline,
    render_trace_summary,
    summarize_trace,
    write_chrome,
    write_jsonl,
)
from .obs.health import VERDICT_VIOLATED
from .workloads import line_rate_trace, random_headers


def _load_ast(spec: str):
    path = Path(spec)
    if path.suffix in (".c", ".domino") and path.exists():
        ast = parse(path.read_text(), source_name=path.stem)
        analyze(ast)
        return ast
    return get_program(spec)


def cmd_programs(_args) -> int:
    for name in program_names():
        print(name)
    return 0


def cmd_compile(args) -> int:
    compiled = compile_program(_load_ast(args.program))
    print(compiled.describe())
    return 0


def cmd_tac(args) -> int:
    tac = preprocess(_load_ast(args.program))
    print(tac)
    return 0


def _load_schedule(path, num_pipelines: int) -> Optional[FaultSchedule]:
    """Load a fault schedule and validate it against the run's pipeline
    count up front — a schedule naming pipeline >= k must die with a
    one-line diagnostic here, not a traceback from inside the
    injector."""
    try:
        schedule = FaultSchedule.load(path)
        schedule.validate(num_pipelines=num_pipelines)
    except ConfigError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None
    return schedule


def cmd_run(args) -> int:
    """``run``: simulate a program on MP5 and print its statistics."""
    compiled = compile_program(_load_ast(args.program))
    trace = line_rate_trace(
        args.packets,
        args.pipelines,
        random_headers(compiled),
        packet_size=args.packet_size,
        seed=args.seed,
    )
    recorder = TraceRecorder() if args.trace else None
    metrics = (
        MetricsRegistry(window=args.metrics_window) if args.metrics else None
    )
    profiler = PhaseProfiler() if args.profile else None
    schedule = None
    if args.faults:
        schedule = _load_schedule(args.faults, args.pipelines)
        if schedule is None:
            return 2
    # --alerts-out and --fail-on-violation imply the monitor.
    monitor = (
        InvariantMonitor()
        if args.monitor or args.alerts_out or args.fail_on_violation
        else None
    )
    stats, _regs = ENGINES[args.engine](
        compiled,
        trace,
        MP5Config(num_pipelines=args.pipelines, seed=args.seed),
        recorder=recorder,
        metrics=metrics,
        profiler=profiler,
        faults=schedule,
        monitor=monitor,
    )
    for key, value in stats.summary().items():
        print(f"{key:16s} {value}")
    if schedule is not None and not schedule.empty:
        print(f"\nfaults: {schedule.describe()}")
        print(f"drops by reason: {stats.drops_by_reason or '{}'}")
        print(
            f"emergency remaps: {stats.emergency_remaps} "
            f"({stats.emergency_remap_moves} indices moved)"
        )
    if recorder is not None:
        # A profiled vector run embeds its epoch/kernel breakdown in the
        # trace header so `trace-summary` can render the per-epoch view.
        trace_meta = (
            {"profiler": profiler.to_dict()} if profiler is not None else None
        )
        if args.trace_format == "jsonl":
            write_jsonl(recorder.events, args.trace, meta=trace_meta)
        else:
            write_chrome(recorder.events, args.trace, meta=trace_meta)
        print(
            f"\ntrace: {len(recorder.events)} events -> {args.trace} "
            f"({args.trace_format})"
        )
    if metrics is not None:
        metrics.save(args.metrics)
        print(f"metrics: {args.metrics}")
    if profiler is not None:
        print()
        print(profiler.report())
    if monitor is not None:
        health = monitor.health_report()
        print()
        for line in health.summary_lines():
            print(line)
        if args.alerts_out:
            alerts_meta = {"ticks": stats.ticks, "verdict": health.verdict}
            if profiler is not None and profiler.epochs:
                # Epoch boundaries are deterministic (unlike timings),
                # so monitor-report can show the vector run's structure.
                alerts_meta["epochs"] = [dict(e) for e in profiler.epochs]
            monitor.alerts.save(args.alerts_out, meta=alerts_meta)
            print(f"alerts: {len(monitor.alerts)} -> {args.alerts_out}")
        if args.fail_on_violation and health.verdict == VERDICT_VIOLATED:
            return 1
    return 0


def cmd_trace_summary(args) -> int:
    """``trace-summary``: stall rankings and flow timelines from a trace."""
    try:
        header, events = load_trace(args.trace)
    except (ValueError, OSError) as exc:
        print(f"trace-summary: cannot read {args.trace}: {exc}")
        return 2
    summary = summarize_trace(events)
    print(render_trace_summary(summary, top=args.top, max_flows=args.flows))
    if isinstance(header, dict) and "profiler" in header:
        try:
            section = render_epoch_section(header["profiler"])
        except ValueError as exc:
            print(
                f"trace-summary: malformed profiler block in "
                f"{args.trace}: {exc}"
            )
            return 2
        print()
        print(section)
    if args.alerts:
        try:
            header, log = AlertLog.load(args.alerts)
        except (ValueError, OSError) as exc:
            print(f"trace-summary: cannot read alerts {args.alerts}: {exc}")
            return 2
        print()
        print(render_alerts_section(header, list(log)))
    return 0


def cmd_monitor_report(args) -> int:
    """``monitor-report``: render a saved alert log as a per-tick health
    timeline (sparkline per severity plus the leading alerts)."""
    try:
        header, log = AlertLog.load(args.alerts)
    except (ValueError, OSError) as exc:
        print(f"monitor-report: cannot read {args.alerts}: {exc}")
        return 2
    verdict = header.get("verdict")
    if verdict is not None:
        print(f"verdict: {verdict}")
    epochs = header.get("epochs")
    if epochs:
        bounds = ", ".join(
            f"[{e.get('start')}, {e.get('end')})" for e in epochs[:8]
        )
        more = f" ... {len(epochs) - 8} more" if len(epochs) > 8 else ""
        print(f"vector epochs: {len(epochs)} resolved — {bounds}{more}")
    print(
        render_health_timeline(
            list(log),
            ticks=header.get("ticks"),
            width=args.width,
            max_alerts=args.max_alerts,
        )
    )
    return 0


def cmd_export_metrics(args) -> int:
    """``export-metrics``: render a recorded ``metrics.json`` as
    OpenMetrics text (offline twin of ``GET /metrics.prom``)."""
    from .obs.export import load_metrics_document, render_openmetrics

    try:
        doc = load_metrics_document(args.metrics)
    except (ValueError, OSError) as exc:
        print(f"export-metrics: cannot read {args.metrics}: {exc}")
        return 2
    text = render_openmetrics(doc, prefix=args.prefix)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_top(args) -> int:
    """``top``: live dashboard over a serving daemon (SSE push), or a
    one-shot render of recorded ``metrics.json``/``alerts.jsonl``
    artifacts with ``--metrics``."""
    import threading
    import time

    from .obs.top import TopModel, render_top_frame

    model = TopModel(width=args.width, max_alerts=args.alert_rows)
    if args.metrics:
        try:
            model.load_artifacts(args.metrics, args.alerts_log)
        except (ValueError, OSError) as exc:
            print(f"top: cannot read artifacts: {exc}")
            return 2
        sys.stdout.write(render_top_frame(model, clear=False))
        return 0

    from .service.client import ServiceClient, ServiceClientError

    client = ServiceClient(args.host, args.port)

    def seed() -> bool:
        try:
            status = client.status()
            snap = client.metrics(-1)
            window = client.alerts(0)
            health = client.health()
        except (ServiceClientError, OSError) as exc:
            print(f"top: cannot reach daemon at {client.base}: {exc}")
            return False
        model.apply_status(status)
        model.apply_metrics(snap)
        model.apply_alerts(window)
        model.apply_health(health)
        return True

    if not seed():
        return 2
    if args.once:
        sys.stdout.write(render_top_frame(model, clear=False))
        return 0

    lock = threading.Lock()
    stop = threading.Event()  # daemon ended (SSE end frame / conn lost)

    def draw():
        with lock:
            frame = render_top_frame(model, clear=True)
        sys.stdout.write(frame)
        sys.stdout.flush()

    def pump(iterator, apply):
        try:
            for payload in iterator:
                with lock:
                    apply(payload)
        except (ServiceClientError, OSError):
            pass  # the daemon went away: the same exit as ``event: end``
        stop.set()

    stream_poll = max(0.01, args.interval / 2)
    feeds = [
        (client.stream_metrics(poll=stream_poll), model.apply_metrics),
        (client.stream_alerts(poll=stream_poll), model.apply_alerts),
        (client.stream_health(poll=stream_poll), model.apply_health),
    ]
    threads = [
        threading.Thread(target=pump, args=feed, daemon=True) for feed in feeds
    ]
    try:
        for thread in threads:
            thread.start()
        while not stop.is_set():
            draw()
            time.sleep(args.interval)
        draw()  # final state: the daemon shut down or went away
    except KeyboardInterrupt:
        pass
    finally:
        stop.set()
    return 0


def cmd_equiv(args) -> int:
    """``equiv``: equivalence-check a program; exit 1 on divergence."""
    compiled = compile_program(_load_ast(args.program))
    trace = line_rate_trace(
        args.packets,
        args.pipelines,
        random_headers(compiled),
        packet_size=args.packet_size,
        seed=args.seed,
    )
    report = check_equivalence(
        compiled, trace, MP5Config(num_pipelines=args.pipelines, seed=args.seed)
    )
    print(report.summary())
    return 0 if report.equivalent else 1


def cmd_serve(args) -> int:
    """``serve``: run the long-lived switch daemon (docs/service.md)."""
    import asyncio

    from .service import SwitchService

    schedule = None
    if args.faults:
        schedule = _load_schedule(args.faults, args.pipelines)
        if schedule is None:
            return 2
    program_spec = None
    program_name = None
    if args.program:
        path = Path(args.program)
        if path.suffix in (".c", ".domino") and path.exists():
            program_spec = path.read_text()
            program_name = path.stem
        else:
            program_spec = args.program
    service = SwitchService(
        program=program_spec,
        program_name=program_name,
        engine=args.engine,
        config=MP5Config(num_pipelines=args.pipelines, seed=args.seed),
        queue_depth=args.queue_depth,
        monitor=args.monitor,
        faults=schedule,
        metrics_window=args.metrics_window,
        metrics_retention=args.metrics_retention,
    )

    def ready(svc):
        host, port = svc.address
        print(
            f"serving MP5 on http://{host}:{port} "
            f"(engine={svc.engine}, program={svc.program_name or 'none'})",
            flush=True,
        )

    try:
        asyncio.run(service.serve(args.host, args.port, ready=ready))
    except KeyboardInterrupt:
        pass
    return 0


def cmd_faults(args) -> int:
    """``faults``: generate, validate, or describe a fault schedule."""
    if args.action == "generate":
        schedule = generate_schedule(
            seed=args.seed,
            kinds=args.kinds or None,
            num_pipelines=args.pipelines,
            horizon=args.horizon,
            events=args.events,
        )
        if args.out:
            schedule.save(args.out)
            print(f"wrote {len(schedule.faults)} faults to {args.out}")
        else:
            import json

            print(json.dumps(schedule.to_dict(), indent=2))
        return 0
    # validate / describe both start by loading + validating.
    schedule = _load_schedule(args.spec, args.pipelines)
    if schedule is None:
        return 2
    if args.action == "describe":
        print(schedule.describe())
    else:
        print(f"{args.spec}: valid ({len(schedule.faults)} faults)")
    return 0


def cmd_chaos(args) -> int:
    """``chaos``: fault-injection sweep over kinds x intensities."""
    settings = ChaosSettings(
        num_packets=args.packets,
        seeds=tuple(range(args.seeds)),
        intensities=tuple(args.intensities),
    )
    points = run_chaos_sweep(settings, jobs=args.jobs)
    print(render_chaos(points))
    if args.out:
        import json
        from dataclasses import asdict

        Path(args.out).write_text(
            json.dumps([asdict(p) for p in points], indent=2) + "\n"
        )
        print(f"\nwrote {args.out}")
    return 0


def cmd_table1(_args) -> int:
    print(render_table1())
    return 0


def cmd_fig7(args) -> int:
    """``fig7``: regenerate one Figure 7 panel."""
    settings = SweepSettings(
        num_packets=args.packets,
        seeds=tuple(range(args.seeds)),
        engine=args.engine,
    )
    sweeps = {
        "a": (sweep_pipelines, "7a"),
        "b": (sweep_stateful_stages, "7b"),
        "c": (sweep_register_size, "7c"),
        "d": (sweep_packet_size, "7d"),
    }
    runner, figure = sweeps[args.panel]
    print(render_sweep(runner(settings, jobs=args.jobs), figure))
    return 0


def cmd_fig8(args) -> int:
    settings = RealAppSettings(
        num_packets=args.packets,
        seeds=tuple(range(args.seeds)),
        engine=args.engine,
    )
    print(render_figure8(run_figure8(settings=settings, jobs=args.jobs)))
    return 0


def cmd_reproduce(args) -> int:
    # --fail-on-violation gates the instrumented run --trace records,
    # so either switches it on.
    observe = args.trace or args.fail_on_violation
    if observe and args.out is None:
        print("reproduce --trace/--fail-on-violation needs --out to write into")
        return 2
    artifacts = run_all(
        out_dir=args.out,
        scale=args.scale,
        progress=lambda msg: print(f"[{msg}]"),
        jobs=args.jobs,
        observe=observe,
        engine=args.engine,
    )
    if args.out is None:
        for name, text in artifacts.items():
            print(f"\n{text}")
    if observe:
        header, _log = AlertLog.load(Path(args.out) / "alerts.jsonl")
        verdict = header.get("verdict", "?")
        print(f"health verdict: {verdict}")
        if args.fail_on_violation and verdict == VERDICT_VIOLATED:
            return 1
    return 0


def cmd_micro(args) -> int:
    settings = MicrobenchSettings(
        num_packets=args.packets, seeds=tuple(range(args.seeds))
    )
    if args.which == "d2":
        results = run_d2(settings)
        for result in results:
            print(
                f"{result.pattern}: dynamic/static {result.min_ratio:.2f}-"
                f"{result.max_ratio:.2f}x"
            )
    elif args.which == "d3":
        result = run_d3(settings)
        print(
            f"MP5 {np.mean(result.mp5):.3f}  "
            f"recirc {np.mean(result.recirculation):.3f}  "
            f"naive {np.mean(result.single_pipeline_state):.3f}  "
            f"({np.mean(result.avg_recirculations):.2f} recirc/pkt)"
        )
    else:
        result = run_d4(settings)
        print(
            f"C1 inversion fraction: MP5 {np.mean(result.with_d4):.3f}, "
            f"no-D4 {np.mean(result.without_d4):.3f}, "
            f"recirculation {np.mean(result.recirculation):.3f}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MP5 (SIGCOMM 2022) reproduction: compiler, simulator, "
        "and experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("programs", help="list bundled programs").set_defaults(
        func=cmd_programs
    )

    def add_program_args(p, packets_default=5000):
        p.add_argument("program", help="bundled name or .c/.domino file")
        p.add_argument("--pipelines", type=int, default=4)
        p.add_argument("--packets", type=int, default=packets_default)
        p.add_argument("--packet-size", type=int, default=64)
        p.add_argument("--seed", type=int, default=0)

    def add_engine_arg(p, default=DEFAULT_ENGINE):
        p.add_argument(
            "--engine",
            choices=sorted(ENGINES),
            default=default,
            help="simulation engine: dense = executable specification, "
            "fast = sparse worklist, vector = batch SoA engine (streams "
            "epoch by epoch when served); results are identical on every "
            "engine. Where vector cannot run — phantom_channel faults, "
            "sinks on a faulted run, a config knob or program shape "
            "outside its envelope — it falls back "
            "to fast with one warning naming the reason (see "
            "docs/simulator.md). Default: "
            + (default or "vector at --scale large/xlarge, else fast"),
        )

    p = sub.add_parser("compile", help="compile and show the pipeline layout")
    p.add_argument("program")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("tac", help="show the three-address code")
    p.add_argument("program")
    p.set_defaults(func=cmd_tac)

    p = sub.add_parser("run", help="simulate on MP5 and print statistics")
    add_program_args(p)
    add_engine_arg(p)
    p.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record per-packet lifecycle events to PATH",
    )
    p.add_argument(
        "--trace-format",
        choices=("chrome", "jsonl"),
        default="chrome",
        help="chrome = trace_event JSON (open in Perfetto, default), "
        "jsonl = one event per line",
    )
    p.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="save windowed time-series metrics as JSON to PATH",
    )
    p.add_argument(
        "--metrics-window",
        type=int,
        default=100,
        help="metrics window length in ticks (default 100)",
    )
    p.add_argument(
        "--profile",
        action="store_true",
        help="time the simulator's per-tick phases and print a report",
    )
    p.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="inject faults from a schedule JSON (see `faults generate` "
        "and docs/faults.md)",
    )
    p.add_argument(
        "--monitor",
        action="store_true",
        help="stream online invariant checks + anomaly detection and "
        "print the health verdict (see docs/observability.md)",
    )
    p.add_argument(
        "--alerts-out",
        metavar="PATH",
        default=None,
        help="save the alert log as JSONL to PATH (implies --monitor)",
    )
    p.add_argument(
        "--fail-on-violation",
        action="store_true",
        help="exit non-zero when the health verdict is 'violated' — any "
        "critical alert: invariant break or packet loss (implies "
        "--monitor)",
    )
    p.set_defaults(func=cmd_run)

    p = sub.add_parser(
        "serve",
        help="run the long-lived switch daemon with its HTTP control plane",
    )
    p.add_argument(
        "program",
        nargs="?",
        default=None,
        help="bundled name or .c/.domino file to start with (optional: "
        "load one later via POST /program)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8585, help="0 = ephemeral")
    p.add_argument("--pipelines", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    add_engine_arg(p)
    p.add_argument(
        "--queue-depth",
        type=int,
        default=8,
        help="ingest queue capacity in batches; a full queue answers "
        "POST /ingest with HTTP 429 (default 8)",
    )
    p.add_argument(
        "--monitor",
        action="store_true",
        help="attach an invariant monitor to every segment (feeds "
        "/health and /alerts; see docs/observability.md)",
    )
    p.add_argument(
        "--faults",
        metavar="SPEC",
        default=None,
        help="arm a fault-schedule JSON from startup (also attachable "
        "at runtime via POST /faults)",
    )
    p.add_argument(
        "--metrics-window",
        type=int,
        default=100,
        help="window length in ticks for the /metrics series "
        "(default 100); only segments on the scalar engines (fast, "
        "dense) fill them while open",
    )
    p.add_argument(
        "--metrics-retention",
        type=int,
        default=None,
        metavar="ROWS",
        help="cap in-memory window rows per series; over the cap old "
        "rows are thinned deterministically (keep every 2nd, newest "
        "always kept), bounding daemon memory on long runs (default: "
        "unbounded)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "trace-summary",
        help="print stall rankings and flow timelines from a --trace file",
    )
    p.add_argument("trace", help="trace file (Chrome JSON or JSONL)")
    p.add_argument(
        "--top", type=int, default=10, help="rows per stall ranking"
    )
    p.add_argument(
        "--flows", type=int, default=5, help="flows to show timelines for"
    )
    p.add_argument(
        "--alerts",
        metavar="PATH",
        default=None,
        help="also render an alert log saved with `run --alerts-out`",
    )
    p.set_defaults(func=cmd_trace_summary)

    p = sub.add_parser(
        "monitor-report",
        help="render an alert log (from `run --alerts-out`) as a health "
        "timeline",
    )
    p.add_argument("alerts", help="alert-log JSONL file")
    p.add_argument(
        "--width", type=int, default=60, help="timeline columns (default 60)"
    )
    p.add_argument(
        "--max-alerts",
        type=int,
        default=20,
        help="alert rows to list under the timeline (default 20)",
    )
    p.set_defaults(func=cmd_monitor_report)

    p = sub.add_parser(
        "top",
        help="live terminal dashboard over a serving daemon (SSE push), "
        "or a recorded artifact pair",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8585)
    p.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="redraw interval in seconds (default 1.0)",
    )
    p.add_argument(
        "--width",
        type=int,
        default=48,
        help="sparkline columns / window rows kept per series "
        "(default 48)",
    )
    p.add_argument(
        "--alert-rows",
        type=int,
        default=8,
        help="alert-tail rows (default 8)",
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (no ANSI clear)",
    )
    p.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="offline mode: render a recorded metrics.json instead of "
        "connecting to a daemon",
    )
    p.add_argument(
        "--alerts-log",
        metavar="PATH",
        default=None,
        help="offline mode: alert-log JSONL to show alongside "
        "--metrics",
    )
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "export-metrics",
        help="convert a recorded metrics.json to OpenMetrics text "
        "(offline twin of GET /metrics.prom)",
    )
    p.add_argument("metrics", help="metrics.json written by `run --metrics`")
    p.add_argument(
        "--prefix",
        default="mp5_",
        help="metric-name prefix (default mp5_)",
    )
    p.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="write here instead of stdout",
    )
    p.set_defaults(func=cmd_export_metrics)

    p = sub.add_parser("equiv", help="check functional equivalence")
    add_program_args(p, packets_default=2000)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("faults", help="fault-schedule utilities")
    fault_sub = p.add_subparsers(dest="action", required=True)
    g = fault_sub.add_parser(
        "generate", help="emit a random (seed-determined) schedule"
    )
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--pipelines", type=int, default=4)
    g.add_argument(
        "--horizon", type=int, default=400, help="last tick faults may end at"
    )
    g.add_argument("--events", type=int, default=4, help="number of faults")
    g.add_argument(
        "--kinds",
        nargs="*",
        choices=FAULT_KINDS,
        default=None,
        help="restrict to these fault kinds (default: all)",
    )
    g.add_argument("--out", metavar="PATH", default=None, help="write JSON here")
    g.set_defaults(func=cmd_faults)
    for action, desc in (
        ("validate", "check a schedule JSON, exit non-zero if invalid"),
        ("describe", "print a human summary of a schedule JSON"),
    ):
        v = fault_sub.add_parser(action, help=desc)
        v.add_argument("spec", help="fault-schedule JSON file")
        v.add_argument("--pipelines", type=int, default=4)
        v.set_defaults(func=cmd_faults)

    sub.add_parser("table1", help="regenerate Table 1").set_defaults(
        func=cmd_table1
    )

    def jobs_type(value):
        jobs = int(value)
        if jobs < 0:
            raise argparse.ArgumentTypeError(
                "must be >= 0 (0 = one worker per CPU)"
            )
        return jobs

    def add_jobs_arg(p):
        p.add_argument(
            "--jobs",
            type=jobs_type,
            default=1,
            help="worker processes for the sweep: 1 = serial (default), "
            "0 = one per CPU; results are identical at any job count, "
            "and a failed worker pool stops the run with its error",
        )

    p = sub.add_parser("fig7", help="regenerate a Figure 7 panel")
    p.add_argument("panel", choices=("a", "b", "c", "d"))
    p.add_argument("--packets", type=int, default=4000)
    p.add_argument("--seeds", type=int, default=2)
    add_jobs_arg(p)
    add_engine_arg(p)
    p.set_defaults(func=cmd_fig7)

    p = sub.add_parser("fig8", help="regenerate Figure 8")
    p.add_argument("--packets", type=int, default=4000)
    p.add_argument("--seeds", type=int, default=2)
    add_jobs_arg(p)
    add_engine_arg(p)
    p.set_defaults(func=cmd_fig8)

    p = sub.add_parser(
        "reproduce", help="regenerate every table/figure into a directory"
    )
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument(
        "--scale",
        choices=("tiny", "small", "full", "large", "xlarge"),
        default="full",
    )
    add_engine_arg(p, default=None)
    p.add_argument(
        "--trace",
        action="store_true",
        help="also record one instrumented run (trace + metrics + stall "
        "summary) into --out, with an invariant monitor whose health "
        "verdict is printed",
    )
    p.add_argument(
        "--fail-on-violation",
        action="store_true",
        help="exit non-zero when the instrumented run's health verdict "
        "is 'violated' (implies --trace)",
    )
    add_jobs_arg(p)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser(
        "chaos", help="fault-injection sweep (throughput + recovery)"
    )
    p.add_argument("--packets", type=int, default=2000)
    p.add_argument("--seeds", type=int, default=3)
    p.add_argument(
        "--intensities",
        type=float,
        nargs="*",
        default=(0.25, 0.5, 1.0),
        help="fault severities to sweep, each in (0, 1]",
    )
    p.add_argument(
        "--out", metavar="PATH", default=None, help="also write points as JSON"
    )
    add_jobs_arg(p)
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser("micro", help="run a §4.3.2 microbenchmark")
    p.add_argument("which", choices=("d2", "d3", "d4"))
    p.add_argument("--packets", type=int, default=4000)
    p.add_argument("--seeds", type=int, default=3)
    p.set_defaults(func=cmd_micro)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    # One CLI invocation = one warning budget: a fallback notice prints
    # once per run, but repeated in-process invocations (tests, REPL)
    # each start fresh.
    from .mp5.vector import reset_fallback_warnings

    reset_fallback_warnings()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
