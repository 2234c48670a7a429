"""Legacy per-engine rows: what the repo benchmark cannot measure.

Performance claims go through ``benchmarks/e2e`` (declared in
``BENCHMARK.json``). This script keeps only the rows no e2e workload
takes, and gates nothing on time. Each row, and why it is here:

* ``engine`` — the fast engine's unfaulted speed on the 2000-packet
  sensitivity workload of ``test_mp5_simulation_throughput`` (4
  pipelines, 4 stateful stages, 512-entry registers); e2e times the
  scalar engine only under faults.
* ``seed_baseline`` — that workload on the pre-fast-path engine (commit
  ``275ecc4``), measured once on the reference host and quoted against
  ``engine``; re-measure it in a checkout of that commit before
  trusting the speedup on other hardware.
* ``engine_traced`` — ``engine`` with a :class:`repro.obs.TraceRecorder`
  and a metrics registry attached; no e2e workload attaches a recorder.
* ``engine_vector`` — the vector engine on the same workload, kept only
  as the denominator of ``engine_vector_traced``'s overhead.
* ``engine_vector_traced`` — the recorder's cost on the vector engine
  (events synthesized from the epoch schedule); no e2e workload
  attaches a recorder.
* ``vector_1m`` — two 1M-packet vector runs, the ``scale=xlarge``
  per-point size (e2e's largest run is 50k packets); ``seconds_first``
  sits beside ``seconds_min`` because the first 1M call in a process
  costs about twice a later one. Full runs only.
* ``sweep`` — ``run_all(scale="tiny")`` serial and with ``--jobs``
  workers, whose two ``results.json`` must be byte-identical. Full runs
  only.
* ``chaos_smoke`` — a tiny chaos sweep (fault path healthy), serial and
  with ``--jobs`` workers, whose points must be equal.

The exit code is non-zero only when the chaos sweep or the two
``results.json`` diverge. A full run rewrites ``--out``
(``benchmarks/BENCH_mp5.json``); ``--quick`` (5 rounds, no sweep, no 1M
run) writes nothing. ``BENCH_history.jsonl`` is the frozen record of
earlier runs; nothing appends to it.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py [--rounds 15] [--jobs 4]
    PYTHONPATH=src python benchmarks/run_bench.py --quick
"""

from __future__ import annotations

import argparse
import json
import statistics
import tempfile
import time
from pathlib import Path

from repro.harness.runall import run_all
from repro.mp5 import ENGINES, MP5Config
from repro.obs import MetricsRegistry, TraceRecorder
from repro.workloads import (
    clone_packets,
    make_sensitivity_program,
    sensitivity_trace,
)

# The engine workload (2000-packet sensitivity trace, k=4),
# timed on the seed engine (commit 275ecc4) on the reference host:
# best-of-15 0.1272 s, median 0.1459 s for the 2000-packet run.
SEED_BASELINE = {
    "commit": "275ecc4",
    "engine_seconds_min": 0.1272,
    "engine_seconds_median": 0.1459,
}


def bench_engine(
    rounds: int,
    observed: bool = False,
    engine: str = "fast",
    num_packets: int = 2000,
) -> dict:
    program = make_sensitivity_program(4, 512)
    trace = sensitivity_trace(num_packets, 4, 4, 512, seed=0)
    runner = ENGINES[engine]
    times = []
    ticks = None
    events = None
    for _ in range(rounds):
        batch = clone_packets(trace)
        recorder = TraceRecorder() if observed else None
        metrics = MetricsRegistry(window=100) if observed else None
        start = time.perf_counter()
        stats, _ = runner(
            program,
            batch,
            MP5Config(num_pipelines=4),
            recorder=recorder,
            metrics=metrics,
        )
        times.append(time.perf_counter() - start)
        ticks = stats.ticks
        assert stats.egressed == num_packets
        if observed:
            events = len(recorder.events)
    best = min(times)
    workload = f"sensitivity {num_packets} pkts, k=4, m=4, r=512"
    if engine != "fast":
        workload += f", {engine} engine"
    report = {
        "workload": workload,
        "rounds": rounds,
        "ticks": ticks,
        "seconds_min": round(best, 4),
        "seconds_median": round(statistics.median(times), 4),
        "seconds_first": round(times[0], 4),
        "ticks_per_sec": round(ticks / best),
    }
    if observed:
        report["events"] = events
    return report


def with_overhead(traced: dict, untraced: dict) -> dict:
    """``traced`` plus its cost over the same-process untraced run."""
    overhead = traced["seconds_min"] / untraced["seconds_min"] - 1
    return dict(traced, overhead_vs_untraced=round(overhead, 4))


def bench_chaos_smoke(jobs: int) -> dict:
    """Tiny chaos sweep (repro.harness.chaos): checks the fault path
    stays healthy and job-count invariant, and times it."""
    from repro.harness import ChaosSettings, run_chaos_sweep

    settings = ChaosSettings(num_packets=300, seeds=(0,), intensities=(1.0,))
    start = time.perf_counter()
    serial = run_chaos_sweep(settings, jobs=1)
    serial_s = time.perf_counter() - start
    parallel = run_chaos_sweep(settings, jobs=jobs)
    baseline = next(p for p in serial if p.kind == "none")
    return {
        "workload": "chaos sweep, 300 pkts, 4 kinds x intensity 1.0",
        "serial_seconds": round(serial_s, 2),
        "jobs_invariant": serial == parallel,
        "baseline_throughput": round(baseline.throughput, 3),
        "faulted_throughput_min": round(
            min(p.throughput for p in serial if p.kind != "none"), 3
        ),
    }


def bench_sweep(jobs: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        serial_dir = Path(tmp) / "serial"
        par_dir = Path(tmp) / "parallel"
        start = time.perf_counter()
        run_all(out_dir=str(serial_dir), scale="tiny", jobs=1)
        serial_s = time.perf_counter() - start
        start = time.perf_counter()
        run_all(out_dir=str(par_dir), scale="tiny", jobs=jobs)
        parallel_s = time.perf_counter() - start
        identical = (serial_dir / "results.json").read_bytes() == (
            par_dir / "results.json"
        ).read_bytes()
    return {
        "workload": 'run_all(scale="tiny")',
        "jobs": jobs,
        "serial_seconds": round(serial_s, 2),
        "parallel_seconds": round(parallel_s, 2),
        "speedup": round(serial_s / parallel_s, 2),
        "results_json_identical": identical,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=15)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: 5 rounds, skip the sweep and the 1M-packet run, "
        "don't rewrite --out",
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent / "BENCH_mp5.json"),
    )
    args = parser.parse_args()

    rounds = 5 if args.quick else args.rounds
    engine = bench_engine(rounds)
    engine["speedup_vs_seed_min"] = round(
        SEED_BASELINE["engine_seconds_min"] / engine["seconds_min"], 2
    )
    engine["speedup_vs_seed_median"] = round(
        SEED_BASELINE["engine_seconds_median"] / engine["seconds_median"], 2
    )
    engine_vector = bench_engine(rounds, engine="vector")
    report = {
        "engine": engine,
        "seed_baseline": SEED_BASELINE,
        "engine_traced": with_overhead(bench_engine(rounds, observed=True), engine),
        "engine_vector": engine_vector,
        "engine_vector_traced": with_overhead(
            bench_engine(rounds, observed=True, engine="vector"), engine_vector
        ),
        "chaos_smoke": bench_chaos_smoke(args.jobs),
    }
    if not report["chaos_smoke"]["jobs_invariant"]:
        raise SystemExit("chaos sweep diverged between serial and parallel")
    if not args.quick:
        # Two rounds: the first 1M call in a process runs ~2x every
        # later one (not GC — gc.freeze() leaves it; cause otherwise
        # unattributed), so one round would record the cold cost as
        # the engine's speed. seconds_first keeps it on record.
        report["vector_1m"] = bench_engine(
            2, engine="vector", num_packets=1_000_000
        )
        report["sweep"] = bench_sweep(args.jobs)
        if not report["sweep"]["results_json_identical"]:
            raise SystemExit("serial and parallel results.json diverged")
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
