"""The ``repro top`` dashboard: model + frame renderer.

Split deliberately into a pure-data :class:`TopModel` and a pure
renderer :func:`render_top_frame`:

* the model is fed the same JSON documents the control plane serves —
  ``/metrics`` snapshots (full or since-cursor increments, including
  SSE frames, which carry the identical shape), ``/alerts`` windows,
  ``/health`` and ``/status`` documents — or a recorded
  ``metrics.json`` + ``alerts.jsonl`` pair via :meth:`load_artifacts`;
* the renderer reads only model state — no wall clock, no I/O — so
  ``repro top --once`` against recorded artifacts is byte-reproducible
  run over run (the determinism contract the tests pin).

The live loop (SSE subscription with cursor-polling fallback) lives in
``repro.cli``; this module never imports the service layer.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union
from pathlib import Path

from .alerts import AlertLog
from .export import _LANE, load_metrics_document
from .health import spark_row

PathLike = Union[str, Path]

__all__ = ["TopModel", "render_top_frame"]

#: ANSI: clear screen + home cursor (prefixed to live frames only).
CLEAR = "\x1b[2J\x1b[H"

_UNSET = object()


def _fmt(value: float) -> str:
    number = float(value)
    if number.is_integer():
        return str(int(number))
    return f"{number:.2f}"


class TopModel:
    """Render state for one dashboard: bounded series, alert tail,
    latest health/status documents.

    ``width`` bounds both the sparkline columns and the rows kept per
    series; ``max_alerts`` bounds the alert tail. Incremental metrics
    frames merge; a segment change (fresh registry, ticks restart)
    clears the series so sparklines never mix two segments' clocks.
    """

    def __init__(self, width: int = 48, max_alerts: int = 8):
        if width < 1:
            raise ValueError("width must be >= 1")
        self.width = width
        self.max_alerts = max_alerts
        self.window: Optional[int] = None
        self.series: Dict[str, List[List[float]]] = {}
        self.totals: Dict[str, float] = {}
        self.service: Dict[str, float] = {}
        self.segment_index = _UNSET
        self.alerts: List[Dict] = []
        self.alerts_total = 0
        self.health: Optional[Dict] = None
        self.status: Optional[Dict] = None
        self.source = "live"

    # -- feeding --------------------------------------------------------

    def apply_metrics(self, snap: Dict) -> None:
        """Merge a ``/metrics`` document (full snapshot, ``?since=``
        increment, or SSE frame — all share one shape)."""
        self.service = dict(snap.get("service") or self.service)
        segment = snap.get("segment_index", _UNSET)
        if segment is not _UNSET and segment != self.segment_index:
            if segment is not None:
                self.series = {}
            self.segment_index = segment
        engine = snap.get("engine")
        if engine is None:
            return
        self.window = engine.get("window", self.window)
        self.totals = dict(engine.get("totals") or self.totals)
        for name, rows in engine.get("series", {}).items():
            merged = self.series.setdefault(name, [])
            last = merged[-1][0] if merged else None
            for row in rows:
                if last is None or row[0] > last:
                    merged.append(list(row))
            del merged[: -self.width]

    def apply_alerts(self, window: Dict) -> None:
        """Merge an ``/alerts`` window (``cursor`` is the total count)."""
        fresh = window.get("alerts") or []
        cursor = window.get("cursor")
        if cursor is not None:
            self.alerts_total = max(self.alerts_total, int(cursor))
        else:
            self.alerts_total += len(fresh)
        self.alerts.extend(fresh)
        del self.alerts[: -self.max_alerts]

    def apply_health(self, doc: Dict) -> None:
        self.health = doc

    def apply_status(self, doc: Dict) -> None:
        self.status = doc

    def load_artifacts(
        self, metrics_path: PathLike, alerts_path: Optional[PathLike] = None
    ) -> None:
        """Offline mode: a recorded ``metrics.json`` (registry
        ``to_dict`` shape) plus an optional ``alerts.jsonl`` log."""
        doc = load_metrics_document(metrics_path)
        self.source = str(metrics_path)
        self.window = doc.get("window")
        self.totals = dict(doc.get("totals") or {})
        self.series = {
            name: [list(row) for row in rows[-self.width :]]
            for name, rows in doc.get("series", {}).items()
        }
        if alerts_path is not None:
            header, log = AlertLog.load(alerts_path)
            records = log.to_dicts()
            self.alerts_total = len(records)
            self.alerts = records[-self.max_alerts :]
            verdict = header.get("verdict")
            if verdict is not None and self.health is None:
                self.health = {"verdict": verdict, "reasons": []}

    # -- derived views --------------------------------------------------

    def pipes(self) -> List[int]:
        found = set()
        for name in self.series:
            lane = _LANE.match(name)
            if lane:
                found.add(int(lane.group("pipe")))
        return sorted(found)

    def pipe_depth_rows(self, pipe: int) -> List[List[float]]:
        """Per-window max stage-FIFO depth of one pipeline (the lane
        series ``queue_depth.p<pipe>.s<j>`` folded across stages)."""
        per_tick: Dict[float, float] = {}
        for name, rows in self.series.items():
            lane = _LANE.match(name)
            if lane is None or int(lane.group("pipe")) != pipe:
                continue
            for tick, value in rows:
                per_tick[tick] = max(per_tick.get(tick, 0.0), value)
        return [[tick, per_tick[tick]] for tick in sorted(per_tick)]


def _series_line(label: str, rows: List[List[float]], width: int) -> str:
    values = [row[1] for row in rows[-width:]]
    if not values:
        return f"  {label:<12} |{' ' * width}|"
    pad = " " * (width - len(values))
    spark = pad + spark_row(values)
    return (
        f"  {label:<12} |{spark}| last {_fmt(values[-1])}"
        f"  peak {_fmt(max(values))}"
    )


def render_top_frame(model: TopModel, clear: bool = False) -> str:
    """One dashboard frame as text; ``clear`` prepends the ANSI
    clear-screen sequence for live redraws (never used in --once or
    offline renders, which must stay byte-reproducible)."""
    lines: List[str] = []
    health = model.health or {}
    status = model.status or {}
    program = health.get("program") or status.get("program") or "-"
    engine = health.get("engine") or status.get("engine") or "-"
    verdict = health.get("verdict", "-")
    if model.segment_index is _UNSET:
        segment = "-"
    elif model.segment_index is None:
        segment = "closed"
    else:
        segment = str(model.segment_index)
    lines.append(
        f"MP5 top — program {program} · engine {engine} · "
        f"segment {segment} · verdict {verdict}"
    )
    if model.service:
        svc = model.service
        queue = _fmt(svc.get("queue_depth", 0))
        capacity = status.get("queue_capacity")
        if capacity is not None:
            queue = f"{queue}/{capacity}"
        line = (
            "service  "
            f"ingested={_fmt(svc.get('ingested', 0))}  "
            f"batches={_fmt(svc.get('batches', 0))}  "
            f"rejected={_fmt(svc.get('rejected', 0))}  "
            f"queue={queue}  "
            f"segments={_fmt(svc.get('segments', 0))}  "
            f"alerts={_fmt(svc.get('alerts_total', 0))}"
        )
        for label, key in (("wire", "ingest_batches"), ("bytes", "ingest_bytes")):
            wires = svc.get(key)
            if wires:
                line += f"  {label}=" + "/".join(
                    f"{wire}:{_fmt(wires[wire])}" for wire in sorted(wires)
                )
        if svc.get("watermark") is not None:
            line += f"  watermark={_fmt(svc['watermark'])}"
        if svc.get("first_egress_latency") is not None:
            line += f"  first-egress={svc['first_egress_latency'] * 1000:.1f}ms"
        lines.append(line)
    flags = []
    if status.get("paused"):
        flags.append("paused")
    if status.get("draining"):
        flags.append("draining")
    faults = status.get("faults", 0)
    if faults:
        flags.append(f"{faults} fault(s) armed")
    if flags:
        lines.append("state    " + " · ".join(flags))
    lines.append("")

    window = model.window or "?"
    lines.append(
        f"window series (window={window} ticks, last {model.width} "
        f"windows, peak-scaled)"
    )
    lines.append(
        _series_line("throughput", model.series.get("egressed", []), model.width)
    )
    lines.append(
        _series_line("drops", model.series.get("dropped", []), model.width)
    )
    for pipe in model.pipes():
        lines.append(
            _series_line(
                f"queue p{pipe}", model.pipe_depth_rows(pipe), model.width
            )
        )
    lines.append("")

    shown = len(model.alerts)
    lines.append(f"alerts (total {model.alerts_total}, showing last {shown})")
    if model.alerts:
        lines.append(f"  {'tick':>6}  {'severity':<8}  {'kind':<20}  message")
        for alert in model.alerts:
            lines.append(
                f"  {alert.get('tick', '?'):>6}  "
                f"{alert.get('severity', '?'):<8}  "
                f"{alert.get('kind', '?'):<20}  "
                f"{alert.get('message', '')}"
            )
    reasons = health.get("reasons") or []
    if reasons:
        lines.append("")
        lines.append("health reasons:")
        for reason in reasons:
            lines.append(f"  - {reason}")
    text = "\n".join(lines) + "\n"
    if clear:
        text = CLEAR + text
    return text
