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
* ``engine_traced`` / ``engine_vector_traced`` — what a
  :class:`repro.obs.TraceRecorder` costs the fast / vector engine on
  ``offline_monitored``'s 20k-packet trace (``benchmarks/e2e``, seed 1):
  each round runs the engine plain, then traced until the trace is
  written (the call, ``recorder.events``, ``write_jsonl``). No e2e
  workload attaches a recorder. Full runs only. To time one engine
  against any checkout's ``src/``::

      PYTHONPATH=<checkout>/src python -c "import sys; sys.path.insert(0,
          'benchmarks'); from run_bench import bench_traced;
          print(bench_traced(3, 'vector'))"

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
(``benchmarks/BENCH_mp5.json``); ``--quick`` (5 rounds, no traced
rows, no sweep, no 1M run) writes nothing. ``BENCH_history.jsonl`` is the frozen record of
earlier runs; nothing appends to it.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py [--rounds 15] [--jobs 4]
    PYTHONPATH=src python benchmarks/run_bench.py --quick
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

from repro.harness.runall import run_all
from repro.mp5 import ENGINES, MP5Config
from repro.obs import TraceRecorder, write_jsonl
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
    rounds: int, engine: str = "fast", num_packets: int = 2000
) -> dict:
    program = make_sensitivity_program(4, 512)
    trace = sensitivity_trace(num_packets, 4, 4, 512, seed=0)
    runner = ENGINES[engine]
    times = []
    ticks = None
    for _ in range(rounds):
        batch = clone_packets(trace)
        start = time.perf_counter()
        stats, _ = runner(program, batch, MP5Config(num_pipelines=4))
        times.append(time.perf_counter() - start)
        ticks = stats.ticks
        assert stats.egressed == num_packets
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
    return report


def bench_traced(rounds: int, engine: str) -> dict:
    """``engine`` on ``offline_monitored``'s trace, plain and traced
    until its trace is written, alternating within each round."""
    sys.path.insert(0, str(Path(__file__).resolve().parent / "e2e"))
    from workloads import OfflineMonitored

    workload = OfflineMonitored(seed=1)
    workload.build()
    runner = ENGINES[engine]
    times = {"plain": [], "traced": []}
    with tempfile.TemporaryDirectory() as tmp:
        for _ in range(rounds):
            for mode in times:
                recorder = TraceRecorder() if mode == "traced" else None
                batch = clone_packets(workload.trace)
                start = time.perf_counter()
                runner(
                    workload.program, batch, workload.config, recorder=recorder
                )
                if recorder is not None:
                    write_jsonl(recorder.events, Path(tmp) / "trace.jsonl")
                times[mode].append(time.perf_counter() - start)
    plain, traced = min(times["plain"]), min(times["traced"])
    return {
        "workload": f"offline_monitored, {len(workload.trace)} pkts, seed 1, "
        f"{engine} engine",
        "rounds": rounds,
        "events": len(recorder),
        "plain_seconds_min": round(plain, 4),
        "traced_written_seconds_min": round(traced, 4),
        "traced_written_seconds_median": round(statistics.median(times["traced"]), 4),
        "overhead_vs_untraced": round(traced / plain - 1, 4),
    }


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
        help="CI smoke: 5 rounds, skip the traced rows, the sweep and the "
        "1M-packet run, don't rewrite --out",
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
    report = {
        "engine": engine,
        "seed_baseline": SEED_BASELINE,
        "chaos_smoke": bench_chaos_smoke(args.jobs),
    }
    if not report["chaos_smoke"]["jobs_invariant"]:
        raise SystemExit("chaos sweep diverged between serial and parallel")
    if not args.quick:
        report["engine_traced"] = bench_traced(args.rounds, "fast")
        report["engine_vector_traced"] = bench_traced(args.rounds, "vector")
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
