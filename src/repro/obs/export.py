"""OpenMetrics / Prometheus text exposition for the metrics registry.

Turns a :class:`~repro.obs.metrics.MetricsRegistry` (live, or a saved
``metrics.json`` document) into the `OpenMetrics text format
<https://prometheus.io/docs/specs/om/open_metrics_spec/>`_ any
Prometheus-compatible scraper ingests::

    # TYPE mp5_egressed counter
    # HELP mp5_egressed Packets that left the switch.
    mp5_egressed_total 2000
    # TYPE mp5_queue_depth gauge
    mp5_queue_depth{pipe="0",stage="1"} 3
    ...
    # EOF

Three rules make the exposition stable and scrape-friendly:

* **Name sanitization** — series names are mapped onto the OpenMetrics
  charset (``[a-zA-Z_][a-zA-Z0-9_]*``) deterministically: every illegal
  character becomes ``_`` and a leading digit is prefixed with ``_``.
* **Lane labels** — the per-lane series ``queue_depth.p<k>.s<j>`` fold
  into one ``queue_depth`` family with ``pipe``/``stage`` labels
  instead of exploding into one family per FIFO.
* **Point-in-time semantics** — counters expose their running total,
  gauges their latest sample, histograms an OpenMetrics ``summary``
  (latest-window ``quantile`` samples plus running ``_count``/``_sum``).
  The per-window *series* stay in ``metrics.json``; the exposition is
  the scrape view, not the archive.

:func:`parse_openmetrics` is the minimal line parser the tests and the
CI service-smoke job validate expositions with — it checks framing
(``# EOF``), metadata ordering, name charset, label syntax, and sample
grouping, and returns the parsed families.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

PathLike = Union[str, Path]

__all__ = [
    "Family",
    "Sample",
    "families_from_snapshot",
    "families_from_values",
    "load_metrics_document",
    "parse_openmetrics",
    "render_families",
    "render_openmetrics",
    "sanitize_metric_name",
]

DEFAULT_PREFIX = "mp5_"

#: OpenMetrics metric types the renderer emits / the parser accepts.
KNOWN_TYPES = ("counter", "gauge", "summary", "unknown")

_NAME_OK = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_]")
_LANE = re.compile(r"^(?P<base>.+)\.p(?P<pipe>\d+)\.s(?P<stage>\d+)$")

#: Help strings for the well-known switch series; anything else gets a
#: generic line. Keyed by the *raw* series name.
_HELP = {
    "egressed": "Packets that left the switch.",
    "dropped": "Packets dropped (all reasons).",
    "steering_moves": "Crossbar steering moves toward active pipelines.",
    "remap_moves": "Array indices moved by background remap epochs.",
    "phantoms_generated": "Phantom packets emitted toward stateful stages.",
    "phantoms_lost": "Phantoms lost in flight (fault injection).",
    "ecn_marked": "Packets ECN-marked by the queue-threshold scheme.",
    "wasted_slots": "Pipeline slots left idle by ordering stalls.",
    "queue_depth": "Data-packet occupancy of one stage FIFO.",
    "queue_depth_max": "Deepest stage FIFO at the window boundary.",
    "queue_depth_total": "Summed stage-FIFO occupancy at the boundary.",
    "fifo_drops_full": "Packets dropped by full stage FIFOs.",
    "fifo_drops_no_phantom": "Packets dropped for a missing phantom.",
    "sharder_moves": "Array indices moved by the sharding runtime.",
    "latency": "Per-packet ingress-to-egress latency in ticks.",
}


def sanitize_metric_name(name: str) -> str:
    """Deterministically map ``name`` onto the OpenMetrics charset.

    Every character outside ``[a-zA-Z0-9_]`` becomes ``_``; a leading
    digit is prefixed with ``_``; an empty name becomes ``_``. The map
    is stable: equal inputs always yield equal outputs.
    """
    out = _BAD_CHARS.sub("_", name)
    if not out:
        return "_"
    if out[0].isdigit():
        out = "_" + out
    return out


@dataclass
class Sample:
    """One exposition line: ``name{labels} value``."""

    suffix: str  # appended to the family name ("", "_total", "_count"...)
    labels: Tuple[Tuple[str, str], ...]
    value: float


@dataclass
class Family:
    """One metric family: a ``# TYPE``/``# HELP`` pair plus samples."""

    name: str
    kind: str
    help: str
    samples: List[Sample] = field(default_factory=list)


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    """Render a sample value: integers without a trailing ``.0`` so the
    exposition is stable across int/float sources."""
    number = float(value)
    if number.is_integer() and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _help_for(raw_name: str) -> str:
    return _HELP.get(raw_name, f"MP5 series {raw_name!r}.")


def families_from_values(
    values: Dict[str, float],
    kinds: Dict[str, str],
    prefix: str = DEFAULT_PREFIX,
    help_prefix: str = "",
    helps: Optional[Dict[str, str]] = None,
) -> List[Family]:
    """Build scalar families from a flat name → value mapping.

    ``kinds`` assigns ``counter``/``gauge`` per raw name; anything
    missing is exposed as ``unknown``. Lane-suffixed names
    (``base.p<k>.s<j>``) fold into one labelled family per base.
    ``helps`` overrides the help text per raw name (the service uses
    this so its families don't inherit switch-series descriptions).
    """
    families: Dict[str, Family] = {}
    for raw in sorted(values):
        lane = _LANE.match(raw)
        base = lane.group("base") if lane else raw
        kind = kinds.get(raw, kinds.get(base, "unknown"))
        name = prefix + sanitize_metric_name(base)
        family = families.get(name)
        if family is None:
            help_text = (helps or {}).get(base) or _help_for(base)
            family = families[name] = Family(
                name=name,
                kind=kind if kind in KNOWN_TYPES else "unknown",
                help=help_prefix + help_text,
            )
        labels: Tuple[Tuple[str, str], ...] = ()
        if lane:
            labels = (
                ("pipe", lane.group("pipe")),
                ("stage", lane.group("stage")),
            )
        suffix = "_total" if family.kind == "counter" else ""
        family.samples.append(Sample(suffix, labels, float(values[raw])))
    return [families[name] for name in sorted(families)]


def _summary_family(
    raw: str,
    window_rows: Sequence[Dict],
    totals: Dict[str, float],
    prefix: str,
) -> Family:
    name = prefix + sanitize_metric_name(raw)
    family = Family(name=name, kind="summary", help=_help_for(raw))
    if window_rows:
        last = window_rows[-1]
        for quantile, key in (("0.5", "p50"), ("0.99", "p99")):
            if key in last:
                family.samples.append(
                    Sample("", (("quantile", quantile),), float(last[key]))
                )
    count = float(totals.get(f"{raw}_count", 0))
    mean = float(totals.get(f"{raw}_mean", 0.0))
    family.samples.append(Sample("_count", (), count))
    family.samples.append(Sample("_sum", (), mean * count))
    return family


def families_from_snapshot(
    doc: Dict, prefix: str = DEFAULT_PREFIX
) -> List[Family]:
    """Families for a registry snapshot (``MetricsRegistry.to_dict()``
    shape, live or loaded from ``metrics.json``).

    Counters and gauges come from ``totals`` guided by the ``kinds``
    map (documents written before the map existed render as
    ``unknown``); each histogram renders as an OpenMetrics summary.
    """
    totals = doc.get("totals", {})
    kinds = doc.get("kinds", {})
    histograms = doc.get("histograms", {})
    scalar = {
        name: value
        for name, value in totals.items()
        if not any(
            name == f"{hist}_{part}"
            for hist in histograms
            for part in ("count", "mean")
        )
    }
    families = families_from_values(scalar, kinds, prefix=prefix)
    for raw in sorted(histograms):
        families.append(
            _summary_family(raw, histograms[raw], totals, prefix)
        )
    return sorted(families, key=lambda f: f.name)


def render_families(families: Sequence[Family]) -> str:
    """Render families as OpenMetrics text (terminated by ``# EOF``)."""
    lines: List[str] = []
    for family in families:
        if not _NAME_OK.match(family.name):
            raise ValueError(f"invalid metric family name {family.name!r}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        for sample in family.samples:
            label_text = ""
            if sample.labels:
                inner = ",".join(
                    f'{key}="{_escape_label(value)}"'
                    for key, value in sample.labels
                )
                label_text = "{" + inner + "}"
            lines.append(
                f"{family.name}{sample.suffix}{label_text} "
                f"{_format_value(sample.value)}"
            )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def render_openmetrics(
    source, prefix: str = DEFAULT_PREFIX, extra_families: Optional[List[Family]] = None
) -> str:
    """The one-call exposition: ``source`` is a live
    :class:`~repro.obs.metrics.MetricsRegistry` or a snapshot dict.

    ``extra_families`` (e.g. service-level counters) are prepended
    verbatim — the daemon uses this to serve one combined document at
    ``GET /metrics.prom``.
    """
    doc = source.to_dict() if hasattr(source, "to_dict") else source
    families = list(extra_families or []) + families_from_snapshot(
        doc, prefix=prefix
    )
    return render_families(families)


def load_metrics_document(path: PathLike) -> Dict:
    """Read a ``metrics.json`` written by ``MetricsRegistry.save``;
    raises ``ValueError`` on anything that is not one."""
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"not JSON: {exc}") from exc
    if not isinstance(doc, dict) or "totals" not in doc:
        raise ValueError("not a metrics document (missing 'totals')")
    return doc


# ----------------------------------------------------------------------
# Minimal validating parser (tests + CI smoke)
# ----------------------------------------------------------------------

_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r" (?P<value>[^ ]+)$"
)
_LABEL = re.compile(r'^(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>.*)"$')

_SUFFIXES = ("_total", "_count", "_sum", "_bucket", "")


def _split_labels(text: str) -> Tuple[Tuple[str, str], ...]:
    if not text:
        return ()
    labels = []
    for part in text.split(","):
        match = _LABEL.match(part.strip())
        if not match:
            raise ValueError(f"malformed label {part!r}")
        labels.append(
            (
                match.group("key"),
                match.group("value")
                .replace('\\"', '"')
                .replace("\\n", "\n")
                .replace("\\\\", "\\"),
            )
        )
    return tuple(labels)


def parse_openmetrics(text: str) -> Dict[str, Dict]:
    """Parse and validate an OpenMetrics text exposition.

    Returns ``{family: {"type", "help", "samples": [(suffix, labels,
    value), ...]}}``. Raises ``ValueError`` on framing or syntax
    violations: missing ``# EOF`` terminator, content after it,
    duplicate or out-of-order metadata, bad names or labels, samples
    that do not group under the most recent family, unparseable values.
    """
    families: Dict[str, Dict] = {}
    current: Optional[str] = None
    saw_eof = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if saw_eof:
            raise ValueError(f"line {lineno}: content after # EOF")
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4:
                raise ValueError(f"line {lineno}: malformed TYPE line")
            _, _, name, kind = parts
            if not _NAME_OK.match(name):
                raise ValueError(f"line {lineno}: bad family name {name!r}")
            if kind not in KNOWN_TYPES:
                raise ValueError(f"line {lineno}: unknown type {kind!r}")
            if name in families:
                raise ValueError(f"line {lineno}: duplicate TYPE for {name}")
            families[name] = {"type": kind, "help": None, "samples": []}
            current = name
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 3:
                raise ValueError(f"line {lineno}: malformed HELP line")
            name = parts[2]
            if name != current:
                raise ValueError(
                    f"line {lineno}: HELP for {name!r} outside its "
                    f"family block (current: {current!r})"
                )
            families[name]["help"] = parts[3] if len(parts) > 3 else ""
            continue
        if line.startswith("#"):
            raise ValueError(f"line {lineno}: unknown comment {line!r}")
        match = _SAMPLE.match(line)
        if not match:
            raise ValueError(f"line {lineno}: malformed sample {line!r}")
        sample_name = match.group("name")
        if current is None:
            raise ValueError(
                f"line {lineno}: sample before any # TYPE metadata"
            )
        suffix = None
        for candidate in _SUFFIXES:
            if sample_name == current + candidate:
                suffix = candidate
                break
        if suffix is None:
            raise ValueError(
                f"line {lineno}: sample {sample_name!r} does not group "
                f"under family {current!r}"
            )
        labels = _split_labels(match.group("labels") or "")
        try:
            value = float(match.group("value"))
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: bad sample value {match.group('value')!r}"
            ) from exc
        families[current]["samples"].append((suffix, labels, value))
    if not saw_eof:
        raise ValueError("missing # EOF terminator")
    return families
