"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.domino import program_names


class TestCli:
    def test_programs_lists_catalog(self, capsys):
        assert main(["programs"]) == 0
        out = capsys.readouterr().out.split()
        assert out == program_names()

    def test_compile_shows_layout(self, capsys):
        assert main(["compile", "figure3"]) == 0
        out = capsys.readouterr().out
        assert "resolution" in out
        assert "reg3" in out

    def test_tac_shows_instructions(self, capsys):
        assert main(["tac", "packet_counter"]) == 0
        out = capsys.readouterr().out
        assert "count[0]" in out

    def test_compile_from_file(self, tmp_path, capsys):
        source = tmp_path / "prog.domino"
        source.write_text(
            "struct Packet { int x; };\nint c = 0;\n"
            "void func(struct Packet p) { c = c + p.x; }"
        )
        assert main(["compile", str(source)]) == 0
        assert "prog" in capsys.readouterr().out

    def test_run_prints_summary(self, capsys):
        assert main(["run", "heavy_hitter", "--packets", "400"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "egressed" in out

    def test_equiv_exit_code_zero_on_success(self, capsys):
        code = main(
            ["equiv", "sequencer", "--packets", "300", "--pipelines", "2"]
        )
        assert code == 0
        assert "EQUAL" in capsys.readouterr().out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "1 GHz" in capsys.readouterr().out

    def test_micro_d4(self, capsys):
        code = main(["micro", "d4", "--packets", "800", "--seeds", "1"])
        assert code == 0
        assert "MP5 0.000" in capsys.readouterr().out

    def test_unknown_program_raises(self):
        with pytest.raises(KeyError):
            main(["compile", "definitely_not_a_program"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestObservabilityCli:
    def test_run_with_trace_and_summary(self, tmp_path, capsys):
        trace_path = tmp_path / "run.trace.json"
        code = main(
            [
                "run", "heavy_hitter", "--packets", "300",
                "--trace", str(trace_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "trace:" in out and trace_path.exists()

        assert main(["trace-summary", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "Top phantom-wait stalls" in out
        assert "Top FIFO-block stalls" in out
        assert "Per-flow timelines" in out

    def test_run_with_jsonl_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "run.jsonl"
        code = main(
            [
                "run", "heavy_hitter", "--packets", "200",
                "--trace", str(trace_path), "--trace-format", "jsonl",
            ]
        )
        assert code == 0
        assert trace_path.read_text().startswith('{"format": "mp5-trace-events"')
        assert main(["trace-summary", str(trace_path), "--top", "3"]) == 0
        assert "Event counts" in capsys.readouterr().out

    def test_run_with_profile(self, capsys):
        code = main(["run", "heavy_hitter", "--packets", "200", "--profile"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Fast-path phase breakdown" in out
        assert "service" in out

    def test_run_with_metrics(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        code = main(
            [
                "run", "heavy_hitter", "--packets", "200",
                "--metrics", str(metrics_path), "--metrics-window", "50",
            ]
        )
        assert code == 0
        doc = json.loads(metrics_path.read_text())
        assert doc["window"] == 50
        assert "egressed" in doc["series"]

    def test_reproduce_trace_requires_out(self, capsys):
        assert main(["reproduce", "--scale", "tiny", "--trace"]) == 2
        assert "--out" in capsys.readouterr().out

    def test_trace_summary_rejects_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.json"
        empty.write_text("")
        assert main(["trace-summary", str(empty)]) == 2
        out = capsys.readouterr().out
        assert "cannot read" in out
        assert "Traceback" not in out

    def test_trace_summary_rejects_truncated_file(self, tmp_path, capsys):
        truncated = tmp_path / "truncated.jsonl"
        truncated.write_text('{"format": "mp5-trace-events"')
        assert main(["trace-summary", str(truncated)]) == 2
        assert "cannot read" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "name, body, names",
        (
            ("events.json", '{"traceEvents": 5}', "traceEvents"),
            ("list.jsonl", '{"format": "mp5-trace-events"}\n[1]\n', "line 2"),
            (
                "tickless.jsonl",
                '{"format": "mp5-trace-events"}\n{"type": "service"}\n',
                "line 2",
            ),
        ),
        ids=("traceEvents_not_a_list", "line_not_an_object", "no_tick"),
    )
    def test_trace_summary_rejects_malformed_records(
        self, tmp_path, capsys, name, body, names
    ):
        path = tmp_path / name
        path.write_text(body)
        assert main(["trace-summary", str(path)]) == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith(f"trace-summary: cannot read {path}: ")
        assert names in line


class TestMonitorCli:
    def test_run_monitor_prints_health(self, capsys):
        code = main(
            ["run", "heavy_hitter", "--packets", "300", "--monitor"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "health: ok" in out

    def test_fail_on_violation_fault_free_passes(self, capsys):
        code = main(
            [
                "run", "heavy_hitter", "--packets", "300",
                "--fail-on-violation",
            ]
        )
        assert code == 0
        assert "health: ok" in capsys.readouterr().out

    def test_fail_on_violation_crossbar_fails(self, tmp_path, capsys):
        alerts = tmp_path / "alerts.jsonl"
        code = main(
            [
                "run", "heavy_hitter", "--packets", "300",
                "--faults", "examples/faults/crossbar.json",
                "--alerts-out", str(alerts), "--fail-on-violation",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "health: violated" in out
        assert "first violation: tick" in out
        assert "crossbar" in out
        assert alerts.exists()
        header = json.loads(alerts.read_text().splitlines()[0])
        assert header["verdict"] == "violated"

        assert main(["monitor-report", str(alerts)]) == 0
        report = capsys.readouterr().out
        assert "verdict: violated" in report
        assert "critical" in report

    def test_trace_summary_alerts_section(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        alerts = tmp_path / "alerts.jsonl"
        code = main(
            [
                "run", "heavy_hitter", "--packets", "300",
                "--faults", "examples/faults/crossbar.json",
                "--trace", str(trace), "--trace-format", "jsonl",
                "--alerts-out", str(alerts),
            ]
        )
        assert code == 0
        code = main(
            ["trace-summary", str(trace), "--alerts", str(alerts)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Alerts (" in out
        assert "verdict: violated" in out

    def test_monitor_report_rejects_empty_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["monitor-report", str(empty)]) == 2
        out = capsys.readouterr().out
        assert "cannot read" in out
        assert "Traceback" not in out

    def test_monitor_report_rejects_truncated_file(self, tmp_path, capsys):
        truncated = tmp_path / "alerts.jsonl"
        truncated.write_text('{"format": "mp5-alert-log"')
        assert main(["monitor-report", str(truncated)]) == 2
        assert "cannot read" in capsys.readouterr().out

    def test_chaos_table_has_health_column(self, capsys):
        code = main(
            [
                "chaos", "--packets", "200", "--seeds", "1",
                "--intensities", "1.0",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "health" in out
        assert "ok" in out
