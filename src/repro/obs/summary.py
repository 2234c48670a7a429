"""Trace analysis: stall rankings and per-flow timelines.

``repro trace-summary <file>`` loads a trace (JSONL or Chrome format)
and prints:

* event-type counts,
* the **phantom-wait ranking** — per (pipeline, stage) lane, how long
  data packets sat queued behind their ordering position (``wait`` of
  every ``fifo_pop``),
* the **FIFO-block ranking** — per lane, how many head-of-line blocking
  episodes a phantom head caused and for how many ticks,
* drops by reason,
* per-flow timelines for the first few flows.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .events import (
    EVENT_DROP,
    EVENT_EGRESS,
    EVENT_FIFO_BLOCK,
    EVENT_FIFO_POP,
    EVENT_FIFO_UNBLOCK,
    EVENT_INGRESS,
)

Lane = Tuple[int, int]


def summarize_trace(events: Iterable[Dict]) -> Dict:
    """Aggregate an event stream into the summary structure."""
    type_counts: Dict[str, int] = {}
    waits: Dict[Lane, Dict[str, float]] = {}
    blocks: Dict[Lane, Dict[str, int]] = {}
    drops: Dict[str, int] = {}
    flow_of_pkt: Dict[int, Optional[int]] = {}
    pkt_events: Dict[int, List[Dict]] = {}
    last_tick = 0

    for event in events:
        etype = event["type"]
        tick = event["tick"]
        if tick > last_tick:
            last_tick = tick
        type_counts[etype] = type_counts.get(etype, 0) + 1
        pkt = event.get("pkt")
        if pkt is not None:
            pkt_events.setdefault(pkt, []).append(event)
        if etype == EVENT_INGRESS:
            flow_of_pkt[pkt] = event.get("flow")
        elif etype == EVENT_FIFO_POP:
            lane = (event["pipe"], event["stage"])
            entry = waits.setdefault(
                lane, {"pops": 0, "total_wait": 0, "max_wait": 0}
            )
            wait = event.get("wait", 0)
            entry["pops"] += 1
            entry["total_wait"] += wait
            if wait > entry["max_wait"]:
                entry["max_wait"] = wait
        elif etype == EVENT_FIFO_BLOCK:
            lane = (event["pipe"], event["stage"])
            blocks.setdefault(lane, {"episodes": 0, "blocked_ticks": 0})[
                "episodes"
            ] += 1
        elif etype == EVENT_FIFO_UNBLOCK:
            lane = (event["pipe"], event["stage"])
            blocks.setdefault(lane, {"episodes": 0, "blocked_ticks": 0})[
                "blocked_ticks"
            ] += event.get("blocked", 0)
        elif etype == EVENT_DROP:
            drops[event.get("reason", "?")] = (
                drops.get(event.get("reason", "?"), 0) + 1
            )

    flows: Dict[object, List[int]] = {}
    for pkt in sorted(pkt_events):
        flow = flow_of_pkt.get(pkt)
        key = flow if flow is not None else f"pkt {pkt}"
        flows.setdefault(key, []).append(pkt)

    return {
        "events": sum(type_counts.values()),
        "ticks": last_tick + 1,
        "type_counts": type_counts,
        "phantom_waits": waits,
        "fifo_blocks": blocks,
        "drops": drops,
        "flows": flows,
        "pkt_events": pkt_events,
    }


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    cells = [[str(v) for v in row] for row in rows]
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in cells), default=0))
        for i in range(len(headers))
    ]

    def line(row: Sequence[str]) -> str:
        return "  ".join(c.rjust(widths[i]) for i, c in enumerate(row))

    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in cells)
    return "\n".join(out)


def _brief(event: Dict) -> str:
    etype = event["type"]
    where = ""
    if event.get("pipe") is not None:
        where = f" p{event['pipe']}/s{event.get('stage', 0)}"
    extra = ""
    if etype == EVENT_FIFO_POP and event.get("wait"):
        extra = f" wait={event['wait']}"
    elif etype == EVENT_DROP:
        extra = f" ({event.get('reason', '?')})"
    elif etype == EVENT_EGRESS:
        extra = f" latency={event.get('latency')}"
    elif "array" in event:
        extra = f" {event['array']}"
        if event.get("index") is not None:
            extra += f"[{event['index']}]"
    return f"t{event['tick']} {etype}{where}{extra}"


def render_trace_summary(
    summary: Dict, top: int = 10, max_flows: int = 5
) -> str:
    """Render the summary the ``trace-summary`` subcommand prints."""
    parts: List[str] = [
        f"Trace summary: {summary['events']} events over "
        f"{summary['ticks']} ticks"
    ]

    counts = summary["type_counts"]
    parts.append("")
    parts.append("Event counts")
    parts.append(
        _table(
            ("event", "count"),
            sorted(counts.items(), key=lambda kv: kv[1], reverse=True),
        )
    )

    waits = summary["phantom_waits"]
    parts.append("")
    parts.append("Top phantom-wait stalls (ticks data packets spent queued)")
    if waits:
        ranked = sorted(
            waits.items(), key=lambda kv: kv[1]["total_wait"], reverse=True
        )[:top]
        parts.append(
            _table(
                ("lane", "pops", "total wait", "mean", "max"),
                [
                    (
                        f"p{lane[0]}/s{lane[1]}",
                        w["pops"],
                        w["total_wait"],
                        f"{w['total_wait'] / w['pops']:.2f}" if w["pops"] else "-",
                        w["max_wait"],
                    )
                    for lane, w in ranked
                ],
            )
        )
    else:
        parts.append("  (no queued packets)")

    blocks = summary["fifo_blocks"]
    parts.append("")
    parts.append("Top FIFO-block stalls (phantom head-of-line blocking)")
    if blocks:
        ranked = sorted(
            blocks.items(),
            key=lambda kv: (kv[1]["blocked_ticks"], kv[1]["episodes"]),
            reverse=True,
        )[:top]
        parts.append(
            _table(
                ("lane", "episodes", "blocked ticks"),
                [
                    (f"p{lane[0]}/s{lane[1]}", b["episodes"], b["blocked_ticks"])
                    for lane, b in ranked
                ],
            )
        )
    else:
        parts.append("  (no blocking observed)")

    if summary["drops"]:
        parts.append("")
        parts.append("Drops by reason")
        parts.append(
            _table(
                ("reason", "count"),
                sorted(
                    summary["drops"].items(),
                    key=lambda kv: kv[1],
                    reverse=True,
                ),
            )
        )

    parts.append("")
    parts.append(f"Per-flow timelines (first {max_flows} flows)")
    pkt_events = summary["pkt_events"]
    for flow, pkts in list(summary["flows"].items())[:max_flows]:
        parts.append(f"  flow {flow}:")
        for pkt in pkts[:4]:
            timeline = " -> ".join(_brief(e) for e in pkt_events[pkt])
            parts.append(f"    pkt {pkt}: {timeline}")
        if len(pkts) > 4:
            parts.append(f"    ... {len(pkts) - 4} more packets")
    return "\n".join(parts)


def render_epoch_section(profiler: Dict) -> str:
    """Render the per-epoch section ``trace-summary`` appends when a
    trace header carries a ``profiler`` block (vector-engine runs save
    one via ``run --engine vector --profile --trace``).

    Shows the epoch boundaries Phase A resolved with each boundary's
    remap outcome, the Phase A / Phase B / reconstruction wall-clock
    split with Phase A's cost per resolved epoch, the per-stage kernel
    tier that serviced each stateful stage,
    and what the reconstruction span fed (sink kinds, windows rolled,
    invariant predicates evaluated). Keys it does not know — the
    ``pool`` gauges older runs recorded — are ignored. Raises
    :class:`ValueError` on a malformed block so the CLI can exit 2 with
    a one-line diagnostic, matching the empty/truncated-trace handling.
    """
    if not isinstance(profiler, dict):
        raise ValueError("profiler block must be a JSON object")
    spans = profiler.get("spans", {})
    kernels = profiler.get("kernels", {})
    epochs = profiler.get("epochs", [])
    sinks = profiler.get("sinks", {})
    if not isinstance(spans, dict) or not all(
        isinstance(v, (int, float)) for v in spans.values()
    ):
        raise ValueError("profiler 'spans' must map section -> seconds")
    if not isinstance(kernels, dict) or not all(
        isinstance(v, dict) for v in kernels.values()
    ):
        raise ValueError("profiler 'kernels' must map stage -> entry")
    if not isinstance(epochs, list) or not all(
        isinstance(e, dict) and "start" in e and "end" in e for e in epochs
    ):
        raise ValueError("profiler 'epochs' must list {start, end} spans")
    if not isinstance(sinks, dict) or not isinstance(
        sinks.get("kinds", []), list
    ):
        raise ValueError(
            "profiler 'sinks' must be {kinds, windows, predicates}"
        )

    parts: List[str] = [f"Vector epochs ({len(epochs)} resolved)"]
    if epochs:
        parts.append(
            _table(
                ("epoch", "span", "ticks", "remap moves"),
                [
                    (
                        e.get("epoch", i),
                        f"[{e['start']}, {e['end']})",
                        e["end"] - e["start"],
                        e.get("remap_moves", "-"),
                    )
                    for i, e in enumerate(epochs)
                ],
            )
        )
    else:
        parts.append("  (no epochs recorded)")
    if spans:
        total = sum(spans.values()) or 1.0
        parts.append("")
        parts.append("Phase split")
        parts.append(
            _table(
                ("section", "seconds", "share"),
                [
                    (name, f"{seconds:.4f}", f"{100 * seconds / total:5.1f}%")
                    for name, seconds in sorted(
                        spans.items(), key=lambda kv: kv[1], reverse=True
                    )
                ],
            )
        )
        if "phase_a" in spans and epochs:  # the sweep's fixed cost
            per_epoch = 1e6 * spans["phase_a"] / len(epochs)
            parts.append(f"  Phase A per epoch: {per_epoch:.1f} us")
    if kernels:
        parts.append("")
        parts.append("Service kernel tiers")
        parts.append(
            _table(
                ("stage", "tier", "calls", "seconds"),
                [
                    (
                        stage,
                        entry.get("tier", "?"),
                        entry.get("calls", 0),
                        f"{entry.get('seconds', 0.0):.4f}",
                    )
                    for stage, entry in sorted(kernels.items())
                ],
            )
        )
    if sinks:
        parts.append("")
        parts.append(
            f"Sinks fed ({'+'.join(map(str, sinks.get('kinds', [])))}): "
            f"{sinks.get('windows', 0)} windows, "
            f"{sinks.get('predicates', 0)} predicates"
        )
    return "\n".join(parts)


def render_alerts_section(
    header: Dict, alerts: Sequence, max_alerts: int = 10
) -> str:
    """Render a saved alert log (see :class:`repro.obs.alerts.AlertLog`)
    as the ``Alerts`` section ``trace-summary --alerts`` appends."""
    verdict = header.get("verdict", "?")
    parts: List[str] = [
        f"Alerts ({len(alerts)} recorded, verdict: {verdict})"
    ]
    by_severity: Dict[str, int] = {}
    for alert in alerts:
        by_severity[alert.severity] = by_severity.get(alert.severity, 0) + 1
    if not alerts:
        parts.append("  (none)")
        return "\n".join(parts)
    parts.append(
        "  "
        + " ".join(
            f"{severity}={count}"
            for severity, count in sorted(by_severity.items())
        )
    )
    parts.append(
        _table(
            ("tick", "severity", "kind", "message"),
            [
                (alert.tick, alert.severity, alert.kind, alert.message)
                for alert in alerts[:max_alerts]
            ],
        )
    )
    if len(alerts) > max_alerts:
        parts.append(f"  ... {len(alerts) - max_alerts} more")
    return "\n".join(parts)
