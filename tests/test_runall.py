"""Tests for the one-shot reproduction orchestrator."""

import json

import pytest

from repro.harness import run_all
from repro.harness.runall import SCALES, _observability_run

#: The instrumented artifacts that are byte-identical across engines;
#: trace.json and trace.jsonl differ in within-tick event order.
ENGINE_INVARIANT = (
    "trace_canonical.json",
    "metrics.json",
    "alerts.jsonl",
    "trace_summary.txt",
)


class TestRunAll:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("results")
        messages = []
        artifacts = run_all(
            out_dir=str(out), scale="tiny", progress=messages.append
        )
        return out, artifacts, messages

    def test_all_artifacts_present(self, artifacts):
        _out, rendered, _messages = artifacts
        assert set(rendered) == {
            "table1",
            "microbench",
            "fig7a",
            "fig7b",
            "fig7c",
            "fig7d",
            "fig8",
        }

    def test_files_written(self, artifacts):
        out, rendered, _messages = artifacts
        for name in rendered:
            assert (out / f"{name}.txt").exists()
        assert (out / "results.json").exists()

    def test_structured_results_parse(self, artifacts):
        out, _rendered, _messages = artifacts
        data = json.loads((out / "results.json").read_text())
        assert data["scale"] == "tiny"
        assert len(data["table1"]) == 12
        assert len(data["fig7a"]) == 5
        assert set(data["fig8"]) == {"flowlet", "conga", "wfq", "sequencer"}

    def test_progress_reported(self, artifacts):
        _out, _rendered, messages = artifacts
        assert any("Table 1" in m for m in messages)
        assert any("Figure 8" in m for m in messages)

    def test_rendered_tables_contain_numbers(self, artifacts):
        _out, rendered, _messages = artifacts
        assert "1 GHz" in rendered["table1"]
        assert "pipelines" in rendered["fig7a"]
        assert "D4" in rendered["microbench"]

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            run_all(scale="huge")

    def test_scales_defined(self):
        assert set(SCALES) == {"tiny", "small", "full", "large", "xlarge"}
        # large is the vector-engine tier: 50k packets, multi-seed,
        # with the (scalar-only) microbenchmarks kept at a smaller
        # stream so they don't dominate the wall clock.
        assert SCALES["large"]["engine"] == "vector"
        assert SCALES["large"]["micro_packets"] < SCALES["large"]["num_packets"]
        # xlarge is the million-packet tier; the Figure 7 sweeps
        # stay at 50k (their cost scales with the pipeline sweep).
        assert SCALES["xlarge"]["engine"] == "vector"
        assert (
            SCALES["xlarge"]["sensitivity_packets"]
            < SCALES["xlarge"]["num_packets"]
        )

    def test_no_observability_key_by_default(self, artifacts):
        # observe=False must leave results.json unchanged so serial and
        # parallel runs stay byte-identical with earlier releases.
        out, _rendered, _messages = artifacts
        data = json.loads((out / "results.json").read_text())
        assert "observability" not in data

    def test_observe_requires_out_dir(self):
        with pytest.raises(ValueError):
            run_all(scale="tiny", observe=True)


class TestObservabilityRun:
    def test_artifacts_written(self, tmp_path):
        record = _observability_run(tmp_path, {"num_packets": 200})
        for key in ("trace", "trace_jsonl", "metrics", "trace_summary"):
            assert (tmp_path / record[key]).exists()
        assert record["events"] > 0
        doc = json.loads((tmp_path / record["trace"]).read_text())
        types = {
            r["name"] for r in doc["traceEvents"] if r.get("ph") != "M"
        }
        assert len(types) >= 8
        summary_text = (tmp_path / record["trace_summary"]).read_text()
        assert "Top phantom-wait stalls" in summary_text

    def test_engine_invariant_artifacts_identical(self, tmp_path):
        records = {}
        for engine in ("fast", "vector"):
            (tmp_path / engine).mkdir()
            records[engine] = _observability_run(
                tmp_path / engine, SCALES["tiny"], engine=engine
            )
        assert records["fast"] == records["vector"]
        for name in ENGINE_INVARIANT:
            fast = (tmp_path / "fast" / name).read_bytes()
            assert fast == (tmp_path / "vector" / name).read_bytes(), name
