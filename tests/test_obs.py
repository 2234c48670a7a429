"""Tests for the observability subsystem (repro.obs).

Covers the trace recorder and its two export formats, the metrics
registry, the phase profiler, the trace summarizer, and the engine
integration (events recorded during real simulation runs, attachment
rules, and the disabled-by-default invariant).
"""

import json

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.mp5 import MP5Config, MP5Switch, run_mp5
from repro.obs import (
    EVENT_TYPES,
    MetricsRegistry,
    PhaseProfiler,
    TraceRecorder,
    canonical_form,
    chrome_trace,
    events_by_tick,
    events_from_chrome,
    load_trace,
    read_jsonl,
    render_trace_summary,
    summarize_trace,
    write_chrome,
    write_jsonl,
)
from repro.workloads.synthetic import make_sensitivity_program, sensitivity_trace


def _recorded_run(num_packets=300, **config_kwargs):
    program = make_sensitivity_program(num_stateful=4, register_size=64)
    recorder = TraceRecorder()
    stats, _ = run_mp5(
        program,
        sensitivity_trace(num_packets, 4, 4, 64, seed=0),
        MP5Config(num_pipelines=4, **config_kwargs),
        recorder=recorder,
    )
    return recorder, stats


class TestTraceRecorder:
    def test_emitters_build_typed_records(self):
        rec = TraceRecorder()
        rec.ingress(0, 1, 2, 7, 42)
        rec.phantom_emit(0, 1, 2, 3, "reg", 5)
        rec.phantom_match(1, 1, 2, 3)
        rec.fifo_pop(4, 1, 2, 3)
        rec.egress(9, 1, 9.0)
        types = [e["type"] for e in rec.events]
        assert types == [
            "ingress", "phantom_emit", "phantom_match", "fifo_pop", "egress",
        ]
        for event in rec.events:
            assert event["type"] in EVENT_TYPES

    def test_pop_wait_measured_from_match(self):
        rec = TraceRecorder()
        rec.phantom_match(3, 9, 0, 1)
        rec.fifo_pop(10, 9, 0, 1)
        assert rec.events[-1]["wait"] == 7

    def test_pop_without_match_has_zero_wait(self):
        rec = TraceRecorder()
        rec.fifo_pop(10, 9, 0, 1)
        assert rec.events[-1]["wait"] == 0

    def test_block_episodes_deduplicated(self):
        rec = TraceRecorder()
        rec.fifo_block(5, 0, 1)
        rec.fifo_block(6, 0, 1)  # same episode: no second record
        rec.fifo_block(6, 1, 1)  # different lane: its own episode
        rec.fifo_pop(9, 3, 0, 1)
        types = [e["type"] for e in rec.events]
        assert types == ["fifo_block", "fifo_block", "fifo_pop", "fifo_unblock"]
        unblock = rec.events[-1]
        assert unblock["blocked"] == 4  # ticks 5..9

    def test_len_counts_events(self):
        rec = TraceRecorder()
        assert len(rec) == 0
        rec.remap(100, 2)
        assert len(rec) == 1

    def test_events_come_out_in_the_within_tick_order(self):
        """Whatever order a tick's emitters ran in: by phase (the scalar
        step's order), then by key — packet first, then stage before
        pipe — and each unblock right after the pop that ends it."""
        rec = TraceRecorder()
        rec.fifo_block(2, 1, 2)
        rec.remap(5, 1)
        rec.service(5, 3, 0, 2)
        rec.fifo_pop(5, 4, 1, 2)
        rec.egress(5, 9, 5)
        rec.fifo_pop(5, 3, 0, 2)
        rec.phantom_match(5, 6, 0, 2)
        rec.steer(5, 6, 1, 0, 2)
        rec.phantom_emit(5, 7, 0, 3, "r", 1)
        rec.phantom_emit(5, 7, 1, 2, "r", 1)
        rec.ingress(5, 7, 0, 0, None)
        rec.drop(5, 8, "fifo_full")
        rec.fault_start(5, "pipeline_stall", 1, None)
        got = [
            (e["type"], e.get("pkt"), e.get("stage"))
            for e in rec.events if e["tick"] == 5
        ]
        assert got == [
            ("fault_start", None, None),
            ("ingress", 7, 0),
            ("phantom_emit", 7, 2),
            ("phantom_emit", 7, 3),
            ("steer", 6, 2),
            ("phantom_match", 6, 2),
            ("egress", 9, None),
            ("drop", 8, None),
            ("fifo_pop", 3, 2),
            ("fifo_pop", 4, 2),
            ("fifo_unblock", None, 2),
            ("service", 3, 2),
            ("remap", None, None),
        ]
        assert rec.events[0]["type"] == "fifo_block"
        assert len(rec) == len(rec.events) == 14

    def test_column_blocks_equal_emitted_rows(self):
        """The vector engine's surface: a block of columns (arrays,
        lists, or one value for every row) records what the emitters
        would, in the same order."""
        emitted, blocks = TraceRecorder(), TraceRecorder()
        for pkt in (2, 0, 1):
            emitted.phantom_emit(3, pkt, pkt % 2, 4, "r", None)
        blocks.extend(
            "phantom_emit", np.array([3, 3, 3]), np.array([2, 0, 1]),
            [0, 0, 1], 4, "r", None,
        )
        assert len(blocks) == 3
        assert blocks.events == emitted.events


class TestEventHelpers:
    def test_events_by_tick_groups(self):
        rec = TraceRecorder()
        rec.ingress(0, 0, 0, 0, None)
        rec.ingress(0, 1, 1, 1, None)
        rec.egress(5, 0, 5.0)
        grouped = events_by_tick(rec.events)
        assert sorted(grouped) == [0, 5]
        assert len(grouped[0]) == 2

    def test_canonical_form_ignores_within_tick_order(self):
        a, b = TraceRecorder(), TraceRecorder()
        a.ingress(0, 0, 0, 0, None)
        a.ingress(0, 1, 1, 1, None)
        b.ingress(0, 1, 1, 1, None)
        b.ingress(0, 0, 0, 0, None)
        assert canonical_form(a.events) == canonical_form(b.events)

    def test_canonical_form_distinguishes_across_ticks(self):
        a, b = TraceRecorder(), TraceRecorder()
        a.egress(1, 0, 1.0)
        b.egress(2, 0, 2.0)
        assert canonical_form(a.events) != canonical_form(b.events)


class TestExports:
    def test_jsonl_round_trip(self, tmp_path):
        rec, _ = _recorded_run(num_packets=100)
        path = tmp_path / "run.jsonl"
        write_jsonl(rec.events, path, meta={"program": "synthetic"})
        header, events = read_jsonl(path)
        assert header["format"] == "mp5-trace-events"
        assert header["program"] == "synthetic"
        assert events == rec.events

    def test_jsonl_writes_one_line_per_event_whatever_the_values(self, tmp_path):
        """An array name that looks like an item separator stays one
        line, as every other event does."""
        rec = TraceRecorder()
        for pkt in range(3):
            rec.phantom_emit(1, pkt, 0, 1, "a}, {b" if pkt == 1 else "r", pkt)
        path = tmp_path / "odd.jsonl"
        write_jsonl(rec.events, path)
        assert len(path.read_text().splitlines()) == 1 + 3
        assert read_jsonl(path)[1] == rec.events

    def test_jsonl_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"hello": 1}\n')
        with pytest.raises(ValueError):
            read_jsonl(path)

    def test_chrome_trace_structure(self):
        rec, _ = _recorded_run(num_packets=100)
        doc = chrome_trace(rec.events)
        records = doc["traceEvents"]
        meta = [r for r in records if r["ph"] == "M"]
        data = [r for r in records if r["ph"] != "M"]
        assert len(data) == len(rec.events)
        # One process per pipeline (plus the laneless switch process),
        # one named thread lane per (pipeline, stage) seen in the trace.
        process_names = {
            r["args"]["name"] for r in meta if r["name"] == "process_name"
        }
        assert "pipeline 0" in process_names and "switch" in process_names
        thread_names = {
            (r["pid"], r["args"]["name"])
            for r in meta
            if r["name"] == "thread_name"
        }
        assert (1, "stage 0") in thread_names
        # Service events render as duration slices, instants elsewhere.
        assert {r["ph"] for r in data} <= {"X", "i"}
        assert any(r["ph"] == "X" for r in data)

    def test_chrome_trace_one_lane_per_pipeline_stage(self):
        rec, _ = _recorded_run(num_packets=200)
        doc = chrome_trace(rec.events)
        data = [r for r in doc["traceEvents"] if r["ph"] != "M"]
        laned = {(r["pid"], r["tid"]) for r in data if r["pid"] != 0}
        expected = {
            (e["pipe"] + 1, e["stage"])
            for e in rec.events
            if e.get("pipe") is not None
        }
        assert laned == expected

    def test_chrome_round_trip(self, tmp_path):
        rec, _ = _recorded_run(num_packets=100)
        path = tmp_path / "run.trace.json"
        write_chrome(rec.events, path)
        doc = json.loads(path.read_text())
        assert events_from_chrome(doc) == rec.events

    def test_load_trace_detects_both_formats(self, tmp_path):
        rec, _ = _recorded_run(num_packets=100)
        jsonl, chrome = tmp_path / "t.jsonl", tmp_path / "t.json"
        write_jsonl(rec.events, jsonl)
        write_chrome(rec.events, chrome)
        _, from_jsonl = load_trace(jsonl)
        _, from_chrome = load_trace(chrome)
        assert from_jsonl == rec.events
        assert from_chrome == rec.events

    def test_load_trace_rejects_unknown(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text('{"random": true}')
        with pytest.raises(ValueError):
            load_trace(path)


class TestMetricsRegistry:
    def test_counter_series_records_deltas(self):
        reg = MetricsRegistry(window=10)
        c = reg.counter("egressed")
        c.inc(4)
        reg.roll(10)
        c.inc(6)
        reg.roll(20)
        assert reg.series["egressed"] == [[10, 4], [20, 6]]
        assert reg.totals()["egressed"] == 10

    def test_gauge_series_records_levels(self):
        reg = MetricsRegistry(window=10)
        g = reg.gauge("depth")
        g.set(3)
        reg.roll(10)
        g.set(1)
        reg.roll(20)
        assert reg.series["depth"] == [[10, 3], [20, 1]]

    def test_cumulative_sampler_deltas(self):
        reg = MetricsRegistry(window=10)
        state = {"total": 0}
        reg.add_sampler("moves", lambda: state["total"], cumulative=True)
        state["total"] = 7
        reg.roll(10)
        state["total"] = 9
        reg.roll(20)
        assert reg.series["moves"] == [[10, 7], [20, 2]]

    def test_raw_sampler(self):
        reg = MetricsRegistry(window=10)
        state = {"depth": 5}
        reg.add_sampler("queue", lambda: state["depth"])
        reg.roll(10)
        state["depth"] = 2
        reg.roll(20)
        assert reg.series["queue"] == [[10, 5], [20, 2]]

    def test_histogram_window_summaries(self):
        reg = MetricsRegistry(window=10)
        h = reg.histogram("latency")
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        reg.roll(10)
        reg.roll(20)  # empty window: no summary point
        (point,) = reg.histogram_series["latency"]
        assert point["count"] == 3
        assert point["min"] == 1.0 and point["max"] == 3.0
        assert point["mean"] == pytest.approx(2.0)
        assert point["tick"] == 10
        assert h.mean == pytest.approx(2.0)

    def test_maybe_roll_only_at_boundaries(self):
        reg = MetricsRegistry(window=10)
        reg.counter("x")
        for tick in range(25):
            reg.maybe_roll(tick)
        assert [t for t, _ in reg.series["x"]] == [10, 20]

    def test_roll_idempotent_per_tick(self):
        reg = MetricsRegistry(window=10)
        reg.counter("x").inc()
        reg.roll(10)
        reg.roll(10)
        assert len(reg.series["x"]) == 1

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            MetricsRegistry(window=0)

    def test_save_and_to_dict(self, tmp_path):
        reg = MetricsRegistry(window=5)
        reg.counter("n").inc(2)
        reg.roll(5)
        path = tmp_path / "metrics.json"
        reg.save(path)
        doc = json.loads(path.read_text())
        assert doc["window"] == 5
        assert doc["series"]["n"] == [[5, 2]]
        assert doc["totals"]["n"] == 2


class TestPhaseProfiler:
    def test_laps_accumulate(self):
        prof = PhaseProfiler()
        prof.begin()
        prof.lap("a")
        prof.lap("b")
        prof.end_tick()
        prof.begin()
        prof.lap("a")
        prof.lap("b")
        prof.end_tick()
        assert prof.ticks == 2
        assert set(prof.totals) == {"a", "b"}
        assert prof.total_seconds >= 0.0

    def test_report_lists_phases(self):
        prof = PhaseProfiler()
        prof.begin()
        prof.lap("move")
        prof.end_tick()
        report = prof.report()
        assert "move" in report
        assert "total" in report
        assert "1 ticks" in report

    def test_to_dict(self):
        prof = PhaseProfiler()
        prof.begin()
        prof.lap("x")
        prof.end_tick()
        doc = prof.to_dict()
        assert doc["ticks"] == 1
        assert "x" in doc["seconds"]


class TestTraceSummary:
    def test_summarize_counts_and_rankings(self):
        rec, stats = _recorded_run(num_packets=300)
        summary = summarize_trace(rec.events)
        assert summary["events"] == len(rec.events)
        assert summary["type_counts"]["ingress"] == stats.offered
        assert summary["type_counts"]["egress"] == stats.egressed
        assert summary["phantom_waits"]  # stateful stages saw pops
        total_pops = sum(w["pops"] for w in summary["phantom_waits"].values())
        assert total_pops == summary["type_counts"]["fifo_pop"]

    def test_render_mentions_stall_sections(self):
        rec, _ = _recorded_run(num_packets=300)
        text = render_trace_summary(summarize_trace(rec.events))
        assert "Top phantom-wait stalls" in text
        assert "Top FIFO-block stalls" in text
        assert "Per-flow timelines" in text

    def test_drop_ranking(self):
        rec = TraceRecorder()
        rec.drop(3, 0, "no_phantom")
        rec.drop(4, 1, "no_phantom")
        rec.drop(5, 2, "fifo_full")
        summary = summarize_trace(rec.events)
        assert summary["drops"] == {"no_phantom": 2, "fifo_full": 1}
        assert "Drops by reason" in render_trace_summary(summary)


class TestEngineIntegration:
    def test_run_records_rich_event_stream(self):
        rec, stats = _recorded_run(num_packets=300)
        types = {e["type"] for e in rec.events}
        # The acceptance bar: a realistic run exercises at least 8
        # distinct lifecycle event types.
        assert len(types) >= 8
        assert {
            "ingress", "phantom_emit", "phantom_match", "steer",
            "fifo_pop", "service", "egress", "remap",
        } <= types
        egresses = [e for e in rec.events if e["type"] == "egress"]
        assert len(egresses) == stats.egressed

    def test_drop_events_match_stats(self):
        rec, stats = _recorded_run(num_packets=400, fifo_capacity=2)
        drops = [e for e in rec.events if e["type"] == "drop"]
        assert len(drops) == stats.dropped

    def test_metrics_attached_to_run(self):
        program = make_sensitivity_program(num_stateful=4, register_size=64)
        metrics = MetricsRegistry(window=50)
        stats, _ = run_mp5(
            program,
            sensitivity_trace(300, 4, 4, 64, seed=0),
            MP5Config(num_pipelines=4),
            metrics=metrics,
        )
        assert metrics.totals()["egressed"] == stats.egressed
        assert len(metrics.series["egressed"]) >= 2  # several windows
        assert metrics.histograms["latency"].total_count == stats.egressed
        # Per-lane queue-depth samplers exist for every stateful lane.
        assert any(name.startswith("queue_depth.p") for name in metrics.series)

    def test_profiler_attached_to_run(self):
        program = make_sensitivity_program(num_stateful=2, register_size=16)
        profiler = PhaseProfiler()
        stats, _ = run_mp5(
            program,
            sensitivity_trace(100, 2, 2, 16, seed=0),
            MP5Config(num_pipelines=2),
            profiler=profiler,
        )
        assert profiler.ticks == stats.ticks
        assert "move" in profiler.totals and "service" in profiler.totals

    def test_attach_after_run_rejected(self):
        program = make_sensitivity_program(num_stateful=2, register_size=16)
        switch = MP5Switch(program, MP5Config(num_pipelines=2))
        switch.run(sensitivity_trace(50, 2, 2, 16, seed=0))
        with pytest.raises(ConfigError):
            switch.attach_observability(recorder=TraceRecorder())

    def test_disabled_by_default(self):
        program = make_sensitivity_program(num_stateful=2, register_size=16)
        switch = MP5Switch(program, MP5Config(num_pipelines=2))
        assert switch.obs is None
        assert switch._metrics is None
        assert switch._profiler is None
        switch.run(sensitivity_trace(50, 2, 2, 16, seed=0))
        assert switch.obs is None
