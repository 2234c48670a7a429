"""Observability for the MP5 engine: tracing, metrics, profiling.

Three independent, individually attachable layers::

    from repro.obs import MetricsRegistry, PhaseProfiler, TraceRecorder

    recorder = TraceRecorder()
    metrics = MetricsRegistry(window=100)
    profiler = PhaseProfiler()
    stats, _ = run_mp5(
        program, trace, config,
        recorder=recorder, metrics=metrics, profiler=profiler,
    )
    write_chrome(recorder.events, "run.trace.json")  # open in Perfetto
    metrics.save("metrics.json")
    print(profiler.report())

Everything is gated behind a single attribute check in the engine: with
nothing attached, the fast path executes the same code it does today.
The scalar engines emit events live, tick by tick; the vector engine
feeds the same sinks from its epoch schedule after the closed-form run
(:mod:`repro.obs.reconstruct` — the recorder event by event, the
registry and the monitor one window at a time, the invariants as
whole-array predicates), so all three engines honor the same contract. See ``docs/observability.md`` for the event
schema and workflows.
"""

from .alerts import (
    Alert,
    AlertLog,
    AnomalyDetector,
    SEVERITIES,
)
from .events import EVENT_TYPES, canonical_form, events_by_tick
from .export import (
    load_metrics_document,
    parse_openmetrics,
    render_openmetrics,
    sanitize_metric_name,
)
from .health import (
    HealthReport,
    VERDICTS,
    render_health_timeline,
    spark_row,
    worst_verdict,
)
from .metrics import Counter, Gauge, MetricsRegistry, WindowedHistogram
from .monitor import INVARIANTS, InvariantMonitor, TeeEmitter
from .profiler import PhaseProfiler
from .reconstruct import synthesize_events
from .summary import (
    render_alerts_section,
    render_epoch_section,
    render_trace_summary,
    summarize_trace,
)
from .top import TopModel, render_top_frame
from .trace import (
    TraceRecorder,
    chrome_trace,
    events_from_chrome,
    load_trace,
    read_jsonl,
    write_chrome,
    write_jsonl,
)

__all__ = [
    "Alert",
    "AlertLog",
    "AnomalyDetector",
    "Counter",
    "EVENT_TYPES",
    "Gauge",
    "HealthReport",
    "INVARIANTS",
    "InvariantMonitor",
    "MetricsRegistry",
    "PhaseProfiler",
    "SEVERITIES",
    "TeeEmitter",
    "TopModel",
    "TraceRecorder",
    "VERDICTS",
    "WindowedHistogram",
    "canonical_form",
    "chrome_trace",
    "events_by_tick",
    "events_from_chrome",
    "load_metrics_document",
    "load_trace",
    "parse_openmetrics",
    "read_jsonl",
    "render_alerts_section",
    "render_epoch_section",
    "render_health_timeline",
    "render_openmetrics",
    "render_top_frame",
    "render_trace_summary",
    "sanitize_metric_name",
    "spark_row",
    "summarize_trace",
    "synthesize_events",
    "worst_verdict",
    "write_chrome",
    "write_jsonl",
]
