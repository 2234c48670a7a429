"""Smoke tests: every example script imports; the ones that read
per-packet results after a run also run, and their printed claims hold."""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def load_module(path: Path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_example(name: str, capsys) -> str:
    """Run ``examples/<name>.py``'s ``main()``; returns what it printed."""
    load_module(EXAMPLES_DIR / f"{name}.py").main()
    return capsys.readouterr().out


def row(out: str, label: str):
    """The cells after ``label`` on the one table row it starts."""
    (line,) = [line for line in out.splitlines() if line.startswith(label)]
    return line[len(label):].split()


class TestExamples:
    def test_examples_exist(self):
        names = {p.stem for p in EXAMPLES}
        assert {
            "quickstart",
            "compiler_tour",
            "heavy_hitter_detection",
            "network_sequencer",
            "flowlet_load_balancing",
            "partitioned_switch",
        } <= names

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
    def test_example_imports_and_has_main(self, path):
        module = load_module(path)
        assert callable(getattr(module, "main", None)), path.stem

    def test_compiler_tour_runs(self, capsys):
        out = run_example("compiler_tour", capsys)
        assert "preemptive address resolution" in out.lower() or "stage 0" in out


class TestExampleClaims:
    """Each of these examples judges the switch by the packets it
    egressed (``switch.packets``), so only a run shows a wrong read."""

    def test_sequencer_stamps_in_order_only_with_d4(self, capsys):
        out = run_example("network_sequencer", capsys)
        assert int(row(out, "MP5 (with D4)")[-1]) == 0
        assert int(row(out, "MP5 without D4")[-1]) > 0

    def test_cache_serves_no_stale_get_with_d4(self, capsys):
        out = run_example("in_network_cache", capsys)
        assert int(row(out, "MP5 (with D4)")[-1]) == 0

    def test_flowlet_keeps_its_hop_within_a_flowlet(self, capsys):
        out = run_example("flowlet_load_balancing", capsys)
        rows = [
            line.split()
            for line in out.splitlines()
            if re.match(r"\s+\d+\s+\d\.\d{3}\s", line)
        ]
        assert [int(r[0]) for r in rows] == [1, 2, 4, 8]
        assert [int(r[-1]) for r in rows] == [0, 0, 0, 0]

    def test_heavy_hitter_prints_five_top_buckets(self, capsys):
        out = run_example("heavy_hitter_detection", capsys)
        assert len(re.findall(r"^  counts\[\d+\] = \d+$", out, re.M)) == 5
