"""Online invariant monitors, anomaly detection, and health/alerts.

Four contract layers:

* **determinism layer** — under every shipped fault schedule the fast
  and dense engines produce *identical* alert streams, and a fault-free
  (or empty-schedule) run produces zero alerts with byte-identical
  results versus a monitor-less run;
* **detection layer** — crossbar and phantom-loss schedules must raise
  alerts that name the active fault window;
* **schema layer** — every event type either engine can emit is in
  ``EVENT_TYPES`` (derived from the emit sites, not hand-copied) and
  survives a lossless Chrome trace_event round-trip;
* **unit layer** — alert log persistence, health verdicts, detector
  rules.
"""

import inspect
import json
import re
from pathlib import Path

import pytest

from repro.equivalence import check_degraded
from repro.faults import DegradationPolicy, FaultSchedule
from repro.mp5 import MP5Config, run_mp5, run_mp5_reference
from repro.obs import (
    Alert,
    AlertLog,
    AnomalyDetector,
    EVENT_TYPES,
    HealthReport,
    InvariantMonitor,
    MetricsRegistry,
    TeeEmitter,
    TraceRecorder,
    events_from_chrome,
    worst_verdict,
    write_chrome,
)
from repro.obs.health import render_health_timeline
from repro.workloads.synthetic import make_sensitivity_program, sensitivity_trace

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples" / "faults").glob(
        "*.json"
    )
)
ALERTING_EXAMPLES = ("crossbar.json", "phantom_loss.json")


def _program():
    return make_sensitivity_program(
        num_stateful=3, register_size=16, num_stages=6
    )


def _config():
    # Unbounded FIFOs: congestion drops are real losses with capacity 8
    # on this skewed trace, and the determinism layer needs a fault-free
    # run that is genuinely loss-free (zero alerts).
    return MP5Config(num_pipelines=4, fifo_capacity=None, remap_period=50)


def _trace(seed=11):
    return sensitivity_trace(300, 4, 3, 16, pattern="skewed", seed=seed)


def _run_monitored(runner, schedule):
    monitor = InvariantMonitor()
    stats, regs = runner(
        _program(),
        _trace(),
        _config(),
        max_ticks=5000,
        faults=schedule,
        monitor=monitor,
    )
    return stats, regs, monitor


def _alert_dicts(monitor):
    return [alert.to_dict() for alert in monitor.alerts]


# ---------------------------------------------------------------------------
# Determinism layer
# ---------------------------------------------------------------------------


class TestMonitorDeterminism:
    @pytest.mark.parametrize(
        "spec", EXAMPLES, ids=[p.stem for p in EXAMPLES]
    )
    def test_alert_streams_engine_identical(self, spec):
        """Both engines raise the same alerts under the same schedule,
        event-for-event — alerts never depend on within-tick order."""
        schedule = FaultSchedule.load(spec)
        _, _, fast = _run_monitored(run_mp5, schedule)
        _, _, dense = _run_monitored(run_mp5_reference, schedule)
        assert _alert_dicts(fast) == _alert_dicts(dense)
        assert fast.health_report().verdict == dense.health_report().verdict

    def test_empty_schedule_zero_alerts_and_identical_results(self):
        """An empty schedule raises no alerts, and the monitored run's
        observable results are byte-identical to a monitor-less run."""
        empty = FaultSchedule(
            faults=[], degradation=DegradationPolicy(), seed=0
        )
        for runner in (run_mp5, run_mp5_reference):
            stats, regs, monitor = _run_monitored(runner, empty)
            assert len(monitor.alerts) == 0
            assert monitor.total_violations() == 0
            assert monitor.health_report().verdict == "ok"
            bare_stats, bare_regs = runner(
                _program(), _trace(), _config(), max_ticks=5000
            )
            monitored = json.dumps(stats.summary(), sort_keys=True)
            detached = json.dumps(bare_stats.summary(), sort_keys=True)
            assert monitored == detached
            assert regs == bare_regs

    def test_fault_free_run_zero_alerts(self):
        stats, _, monitor = _run_monitored(run_mp5, None)
        assert stats.egressed == stats.offered
        assert len(monitor.alerts) == 0
        report = monitor.health_report()
        assert report.verdict == "ok"
        assert report.drained
        assert report.first_critical_tick is None


# ---------------------------------------------------------------------------
# Detection layer
# ---------------------------------------------------------------------------


class TestMonitorDetection:
    @pytest.mark.parametrize("name", ALERTING_EXAMPLES)
    def test_lossy_schedules_raise_alerts(self, name):
        spec = next(p for p in EXAMPLES if p.name == name)
        schedule = FaultSchedule.load(spec)
        _, _, monitor = _run_monitored(run_mp5, schedule)
        criticals = monitor.alerts.by_severity("critical")
        assert len(criticals) >= 1
        report = monitor.health_report()
        assert report.verdict == "violated"
        assert report.first_critical_tick is not None

    def test_crossbar_alert_names_fault_window(self):
        spec = next(p for p in EXAMPLES if p.name == "crossbar.json")
        schedule = FaultSchedule.load(spec)
        _, _, monitor = _run_monitored(run_mp5, schedule)
        first = monitor.health_report().first_critical
        assert first is not None
        windows = first["evidence"]["active_faults"]
        assert any(w["kind"] == "crossbar_fail" for w in windows)
        window = next(w for w in windows if w["kind"] == "crossbar_fail")
        assert window["start"] <= first["tick"] < window["end"]

    def test_checker_reuses_monitor_verdict(self):
        """check_degraded folds the online monitor into its report: the
        degraded contract additionally requires zero invariant
        violations, while packet loss only colors the health verdict."""
        spec = next(p for p in EXAMPLES if p.name == "crossbar.json")
        schedule = FaultSchedule.load(spec)
        report = check_degraded(
            _program(), _trace(), _config(), faults=schedule
        )
        assert report.health == "violated"  # packets were lost
        assert report.monitor_violations == 0  # but no invariant broke
        assert report.contract_holds
        assert "online monitor" in report.summary()
        plain = check_degraded(
            _program(), _trace(), _config(), faults=schedule, monitor=False
        )
        assert plain.health is None
        assert plain.contract_holds


# ---------------------------------------------------------------------------
# Schema layer: emit sites -> EVENT_TYPES -> Chrome round-trip
# ---------------------------------------------------------------------------

# Synthesized argument per emitter parameter name.
_ARG_VALUES = {
    "tick": 1,
    "pkt": 7,
    "pipe": 0,
    "stage": 2,
    "port": 3,
    "flow": 5,
    "array": "reg",
    "index": 4,
    "src": 1,
    "latency": 2.5,
    "moves": 3,
    "reason": "fifo_full",
    "kind": "crossbar_fail",
    "moved": 2,
    "deferred": 1,
    "attempt": 0,
}


def _emitted_method_names():
    """Every ``obs.<method>(...)`` call site in the engines and the
    fault injector — derived from the source, not hand-copied."""
    import repro.faults.injector
    import repro.mp5.reference
    import repro.mp5.switch

    names = set()
    for module in (
        repro.mp5.switch,
        repro.mp5.reference,
        repro.faults.injector,
    ):
        names.update(
            re.findall(r"\bobs\.(\w+)\(", inspect.getsource(module))
        )
    return names


class TestEventSchema:
    def test_every_emit_site_produces_known_event_types(self, tmp_path):
        recorder = TraceRecorder()
        methods = _emitted_method_names()
        assert methods, "no emit sites found — regex out of date?"
        for name in sorted(methods):
            method = getattr(recorder, name)
            params = [
                p
                for p in inspect.signature(method).parameters
                if p != "self"
            ]
            missing = [p for p in params if p not in _ARG_VALUES]
            assert not missing, f"{name}: no synthesized value for {missing}"
            method(**{p: _ARG_VALUES[p] for p in params})
        # fifo_unblock is recorder-internal: emitted when a fifo_pop
        # clears an open fifo_block episode (exercised above).
        produced = {event["type"] for event in recorder.events}
        unknown = produced - set(EVENT_TYPES)
        assert not unknown, f"engines emit types missing from EVENT_TYPES: {unknown}"
        unreachable = set(EVENT_TYPES) - produced
        assert not unreachable, f"EVENT_TYPES no engine emits: {unreachable}"

        # Lossless Chrome trace_event round-trip for one event per type.
        one_per_type = {}
        for event in recorder.events:
            one_per_type.setdefault(event["type"], event)
        events = list(one_per_type.values())
        path = tmp_path / "roundtrip.json"
        write_chrome(events, path)
        assert events_from_chrome(json.loads(path.read_text())) == events


# ---------------------------------------------------------------------------
# Unit layer: alert log, health, detector
# ---------------------------------------------------------------------------


class TestAlertLog:
    def _log(self):
        log = AlertLog()
        log.append(
            Alert(
                severity="critical",
                tick=30,
                subsystem="fifo",
                kind="packet_loss",
                message="1 data packet(s) dropped",
                invariant="lossless_delivery",
                evidence={"reason": "fifo_full", "count": 1},
            )
        )
        log.append(
            Alert(
                severity="info",
                tick=31,
                subsystem="crossbar",
                kind="fault_end",
                message="fault window closed",
            )
        )
        return log

    def test_round_trip(self, tmp_path):
        log = self._log()
        path = tmp_path / "alerts.jsonl"
        log.save(path, meta={"ticks": 40, "verdict": "violated"})
        header, loaded = AlertLog.load(path)
        assert header["format"] == "mp5-alert-log"
        assert header["ticks"] == 40
        assert header["verdict"] == "violated"
        assert loaded.to_dicts() == log.to_dicts()
        # invariant key omitted when None, present otherwise
        assert "invariant" not in loaded.to_dicts()[1]
        assert loaded.to_dicts()[0]["invariant"] == "lossless_delivery"

    def test_load_rejects_empty_and_garbage(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(ValueError):
            AlertLog.load(empty)
        garbage = tmp_path / "garbage.jsonl"
        garbage.write_text('{"format": "something-else"}\n')
        with pytest.raises(ValueError):
            AlertLog.load(garbage)
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text('{"format": "mp5-alert-log"')
        with pytest.raises(ValueError):
            AlertLog.load(truncated)

    def test_by_severity(self):
        log = self._log()
        assert len(log.by_severity("critical")) == 1
        assert len(log.by_severity("warning")) == 0


class TestHealth:
    def test_worst_verdict(self):
        assert worst_verdict("ok", "ok") == "ok"
        assert worst_verdict("ok", "degraded") == "degraded"
        assert worst_verdict("degraded", "violated", "ok") == "violated"

    def test_verdict_from_alerts(self):
        ok = HealthReport.from_alerts([])
        assert ok.verdict == "ok"
        info = HealthReport.from_alerts(
            [Alert("info", 1, "crossbar", "fault_start", "m")]
        )
        assert info.verdict == "ok"  # lifecycle alerts never degrade
        warn = HealthReport.from_alerts(
            [Alert("warning", 1, "egress", "throughput_collapse", "m")]
        )
        assert warn.verdict == "degraded"
        crit = HealthReport.from_alerts(
            [
                Alert("warning", 1, "egress", "throughput_collapse", "m"),
                Alert("critical", 2, "fifo", "packet_loss", "m"),
            ]
        )
        assert crit.verdict == "violated"
        assert crit.first_critical_tick == 2

    def test_timeline_renders_with_and_without_alerts(self):
        assert "0 alerts" in render_health_timeline([])
        alerts = [
            Alert("critical", 5, "fifo", "packet_loss", "lost one"),
            Alert("info", 9, "crossbar", "fault_end", "closed"),
        ]
        text = render_health_timeline(alerts, ticks=10, width=10)
        assert "critical" in text
        assert "lost one" in text


class TestDetector:
    def _registry_with(self, series):
        registry = MetricsRegistry(window=10)
        registry.series.update(series)
        return registry

    def test_throughput_collapse_fires_after_warmup(self):
        detector = AnomalyDetector(window=10)
        # Warm up with steady egress, then collapse to zero.
        for i, value in enumerate((100, 100, 100, 100)):
            registry = self._registry_with(
                {"egressed": [[10 * (i + 1), value]]}
            )
            assert detector.examine(registry, 10 * (i + 1)) == []
        registry = self._registry_with({"egressed": [[50, 0]]})
        alerts = detector.examine(registry, 50)
        assert [a.kind for a in alerts] == ["throughput_collapse"]
        assert alerts[0].severity == "warning"
        assert alerts[0].evidence["z"] <= -4.0

    def test_no_alerts_during_warmup(self):
        detector = AnomalyDetector(window=10)
        registry = self._registry_with({"egressed": [[10, 0]]})
        assert detector.examine(registry, 10) == []

    def test_stale_series_point_ignored(self):
        detector = AnomalyDetector(window=10)
        registry = self._registry_with({"egressed": [[10, 100]]})
        # Examining a later tick must not reuse the tick-10 point.
        assert detector.examine(registry, 20) == []
        assert detector._tracker("throughput").n == 0


class TestTeeEmitter:
    def test_tee_forwards_to_all_sinks(self):
        a, b = TraceRecorder(), TraceRecorder()
        tee = TeeEmitter(a, b)
        tee.ingress(1, 7, 0, 3, 5)
        tee.drop(2, 7, "fifo_full")
        assert a.events == b.events
        assert len(a.events) == 2

    def test_engine_tees_recorder_and_monitor(self):
        recorder = TraceRecorder()
        monitor = InvariantMonitor()
        stats, _ = run_mp5(
            _program(),
            _trace(),
            _config(),
            max_ticks=5000,
            recorder=recorder,
            monitor=monitor,
        )
        assert len(recorder.events) > 0
        assert monitor.injected == stats.offered
        assert monitor.health_report().verdict == "ok"
