"""Smoke test of the benchmark itself. Not part of the tier-1 suite
(``testpaths = ["tests"]``); run it explicitly::

    python -m pytest benchmarks/e2e/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from catalog import END_TO_END, PER_LAYER  # noqa: E402


def run(*args, timeout=120):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
        cwd=ROOT,
    )


def test_contract_matches_catalogue():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in contract["end_to_end"]
    ] == END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in contract["per_layer"]
    ] == PER_LAYER
    assert contract["paths"] == ["benchmarks/e2e"]


def test_smoke_all_workloads_correct():
    proc = run("--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "ALL CORRECT" in proc.stdout


def test_selftest_catches_wrong_digest_and_dead_daemon():
    proc = run("--selftest")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("caught") == 2


def test_traced_run_emits_every_layer_metric():
    proc = run("--workload", "serve_segments", "--seed", "2", "--seconds", "1",
               "--trace", "1", "--scale", "0.2")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [name for name, _unit, _better in PER_LAYER]
    for name in ("service.http.ingest_rtt_p50_ms", "obs.reconstruct_s",
                 "service.daemon.packet_from_json_s", "mp5.vector.feed_s"):
        assert result["metrics"][name]["value"] > 0, name
