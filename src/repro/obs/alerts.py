"""Structured alerts and the windowed anomaly detector.

An :class:`Alert` is one structured observation about a running switch:
a severity, the tick it fired, the subsystem it concerns, and an
evidence dict with whatever the emitter measured. Alerts accumulate in
an :class:`AlertLog`, which serializes to JSONL (one alert per line
behind a header record) so a chaos sweep can archive the alert stream
of every cell and ``monitor-report`` can render it later.

Severities
----------

* ``info`` — lifecycle bookkeeping (fault windows opening/closing,
  emergency remaps). Never affects the health verdict.
* ``warning`` — statistical anomalies from the detector; the run is
  *degraded* but no invariant is known to be broken.
* ``critical`` — an invariant violation or packet loss; the run is
  *violated* (see :class:`repro.obs.health.HealthReport`).

The :class:`AnomalyDetector` watches the per-window series the
:class:`~repro.obs.metrics.MetricsRegistry` samplers already produce
(the monitor owns a private registry fed by the same switch samplers)
and flags windows whose value departs from an exponentially weighted
moving average by more than ``z_threshold`` standard deviations:

* **throughput collapse** — windowed egress count falls to less than
  ``collapse_fraction`` of its EWMA,
* **drop-rate step** — windowed drop count jumps,
* **remap thrash** — the sharder moves far more indices than usual,
* **phantom-wait spike** — the mean queueing wait of popped packets
  jumps.

All thresholds live on :class:`DetectorConfig`; every decision is a
pure function of the per-window series, so the fast and reference
engines produce byte-identical alert streams.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

from .metrics import _bisect_rows

PathLike = Union[str, Path]

ALERT_FORMAT = "mp5-alert-log"
ALERT_VERSION = 1

SEVERITY_INFO = "info"
SEVERITY_WARNING = "warning"
SEVERITY_CRITICAL = "critical"
SEVERITIES = (SEVERITY_INFO, SEVERITY_WARNING, SEVERITY_CRITICAL)


@dataclass
class Alert:
    """One structured monitor/detector observation."""

    severity: str
    tick: int
    subsystem: str
    kind: str
    message: str
    invariant: Optional[str] = None
    evidence: Dict = field(default_factory=dict)

    def to_dict(self) -> Dict:
        record = {
            "severity": self.severity,
            "tick": self.tick,
            "subsystem": self.subsystem,
            "kind": self.kind,
            "message": self.message,
            "evidence": self.evidence,
        }
        if self.invariant is not None:
            record["invariant"] = self.invariant
        return record

    @classmethod
    def from_dict(cls, record: Dict) -> "Alert":
        return cls(
            severity=record["severity"],
            tick=record["tick"],
            subsystem=record["subsystem"],
            kind=record["kind"],
            message=record["message"],
            invariant=record.get("invariant"),
            evidence=record.get("evidence", {}),
        )


class AlertLog:
    """Append-only alert stream with JSONL persistence."""

    def __init__(self) -> None:
        self.alerts: List[Alert] = []

    def append(self, alert: Alert) -> Alert:
        self.alerts.append(alert)
        return alert

    def __len__(self) -> int:
        return len(self.alerts)

    def __iter__(self):
        return iter(self.alerts)

    def by_severity(self, severity: str) -> List[Alert]:
        return [a for a in self.alerts if a.severity == severity]

    def to_dicts(self) -> List[Dict]:
        return [a.to_dict() for a in self.alerts]

    def save(self, path: PathLike, meta: Optional[Dict] = None) -> None:
        header = {"format": ALERT_FORMAT, "version": ALERT_VERSION}
        if meta:
            header.update(meta)
        lines = [json.dumps(header)]
        lines.extend(json.dumps(record) for record in self.to_dicts())
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def load(cls, path: PathLike) -> Tuple[Dict, "AlertLog"]:
        """Read a saved log; raises ``ValueError`` on anything that is
        not a well-formed alert log (empty, truncated, wrong format)."""
        text = Path(path).read_text()
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValueError("empty alert log (no header line)")
        header = json.loads(lines[0])
        if (
            not isinstance(header, dict)
            or header.get("format") != ALERT_FORMAT
        ):
            raise ValueError(
                f"not an {ALERT_FORMAT} file (bad or missing header)"
            )
        log = cls()
        for line in lines[1:]:
            log.append(Alert.from_dict(json.loads(line)))
        return header, log


# ----------------------------------------------------------------------
# Anomaly detection over the per-window metric series
# ----------------------------------------------------------------------


@dataclass
class DetectorConfig:
    """Tuning knobs of the windowed EWMA/z-score anomaly detector.

    The defaults are deliberately conservative: a healthy fault-free
    run must produce *zero* alerts (the CLI's ``--fail-on-violation``
    and the chaos sweep's health verdicts rely on that), so each rule
    combines the z-score with an absolute floor that windowed noise on
    small workloads cannot reach.
    """

    window: int = 100  # ticks per detector window
    ewma_alpha: float = 0.3  # weight of the newest window
    z_threshold: float = 4.0  # |z| needed to flag a window
    warmup_windows: int = 3  # windows observed before any alert
    min_sd: float = 1.0  # floor on the EWMA standard deviation
    collapse_fraction: float = 0.5  # throughput below this x EWMA
    min_throughput: float = 1.0  # EWMA egress/window worth watching
    min_drop_step: int = 2  # windowed drops needed to flag
    min_remap_moves: int = 8  # windowed index moves needed to flag
    min_wait_spike: float = 2.0  # mean-wait increase (ticks) needed


class _Ewma:
    """EWMA mean/variance tracker for one windowed feature."""

    __slots__ = ("mean", "var", "n", "alpha")

    def __init__(self, alpha: float):
        self.alpha = alpha
        self.mean = 0.0
        self.var = 0.0
        self.n = 0

    def score(self, x: float, min_sd: float) -> float:
        sd = max(math.sqrt(self.var), min_sd)
        return (x - self.mean) / sd

    def update(self, x: float) -> None:
        if self.n == 0:
            self.mean = x
        else:
            a = self.alpha
            self.var = a * (x - self.mean) ** 2 + (1.0 - a) * self.var
            self.mean = a * x + (1.0 - a) * self.mean
        self.n += 1


class AnomalyDetector:
    """EWMA/z-score anomaly rules over the monitor's per-window series.

    ``examine(registry, tick)`` is called by the monitor at every window
    boundary with the registry it feeds; each rule reads the point the
    just-closed window appended and returns the alerts it raised.
    """

    def __init__(self, config: Optional[DetectorConfig] = None):
        self.config = config or DetectorConfig()
        self._trackers: Dict[str, _Ewma] = {}

    def _tracker(self, name: str) -> _Ewma:
        tracker = self._trackers.get(name)
        if tracker is None:
            tracker = self._trackers[name] = _Ewma(self.config.ewma_alpha)
        return tracker

    @staticmethod
    def _at(rows, tick: int, key: Callable):
        """The row a series holds for the window closed at ``tick``
        (a block append may already hold later windows), or None."""
        i = _bisect_rows(rows or [], tick, key)
        return rows[i - 1] if i and key(rows[i - 1]) == tick else None

    def _latest(self, registry, name: str, tick: int) -> Optional[float]:
        point = self._at(registry.series.get(name), tick, itemgetter(0))
        return None if point is None else float(point[1])

    def examine(self, registry, tick: int) -> List[Alert]:
        cfg = self.config
        alerts: List[Alert] = []

        def rule(
            feature: str,
            value: Optional[float],
            kind: str,
            subsystem: str,
            fires,
            message,
        ) -> None:
            if value is None:
                return
            tracker = self._tracker(feature)
            z = tracker.score(value, cfg.min_sd)
            if tracker.n >= cfg.warmup_windows and fires(value, tracker, z):
                alerts.append(
                    Alert(
                        severity=SEVERITY_WARNING,
                        tick=tick,
                        subsystem=subsystem,
                        kind=kind,
                        message=message(value, tracker),
                        evidence={
                            "window": cfg.window,
                            "value": round(value, 4),
                            "ewma": round(tracker.mean, 4),
                            "z": round(z, 2),
                        },
                    )
                )
            tracker.update(value)

        rule(
            "throughput",
            self._latest(registry, "egressed", tick),
            "throughput_collapse",
            "egress",
            lambda x, t, z: (
                z <= -cfg.z_threshold
                and t.mean >= cfg.min_throughput
                and x < cfg.collapse_fraction * t.mean
            ),
            lambda x, t: (
                f"windowed egress fell to {x:.0f} "
                f"(EWMA {t.mean:.1f} pkts/window)"
            ),
        )
        rule(
            "drops",
            self._latest(registry, "dropped", tick),
            "drop_rate_step",
            "switch",
            lambda x, t, z: z >= cfg.z_threshold and x >= cfg.min_drop_step,
            lambda x, t: (
                f"windowed drops jumped to {x:.0f} "
                f"(EWMA {t.mean:.2f} drops/window)"
            ),
        )
        rule(
            "remap",
            self._latest(registry, "sharder_moves", tick),
            "remap_thrash",
            "sharding",
            lambda x, t, z: z >= cfg.z_threshold and x >= cfg.min_remap_moves,
            lambda x, t: (
                f"sharder moved {x:.0f} indices this window "
                f"(EWMA {t.mean:.2f} moves/window)"
            ),
        )
        waits = registry.histogram_series.get("phantom_wait")
        waits = self._at(waits, tick, itemgetter("tick"))
        wait_mean = None if waits is None else float(waits["mean"])
        rule(
            "phantom_wait",
            wait_mean,
            "phantom_wait_spike",
            "phantom_channel",
            lambda x, t, z: (
                z >= cfg.z_threshold and x >= t.mean + cfg.min_wait_spike
            ),
            lambda x, t: (
                f"mean phantom wait rose to {x:.1f} ticks "
                f"(EWMA {t.mean:.2f})"
            ),
        )
        return alerts
