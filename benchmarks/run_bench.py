"""Standalone performance harness: measure the simulator and the sweep
runner, write the numbers to ``benchmarks/BENCH_mp5.json``.

Two measurements:

* **engine** — the 2000-packet sensitivity workload of
  ``test_mp5_simulation_throughput`` (4 pipelines, 4 stateful stages,
  512-entry registers), best-of-N wall clock and the derived ticks/sec;
* **sweep** — ``run_all(scale="tiny")`` end to end, serial and with
  ``--jobs`` workers, after checking the two produce a byte-identical
  ``results.json``.

The ``seed_baseline`` block records the same engine workload measured
on the pre-fast-path engine (commit ``275ecc4``) **on this reference
host**; re-measure it locally (``git worktree add /tmp/seed 275ecc4``
and run this script there) before trusting the speedup on different
hardware.

A third measurement, **engine_traced**, re-runs the engine workload
with a :class:`repro.obs.TraceRecorder` and metrics registry attached,
so the observability overhead (both enabled and disabled) is tracked
next to the raw numbers. **engine_monitored** does the same with only
the :class:`repro.obs.InvariantMonitor` attached — the cost of the
online invariant checks. **engine_vector** times the vector (batch
SoA) engine on the same 2000-packet workload and quotes its speedup
over the fast engine measured in the same process; **vector_50k** is
the vector engine on a 50000-packet stream — the workload size behind
``reproduce --scale large``.

**vector_1m** times two 1M-packet vector runs (skipped under
``--quick``), the ``scale=xlarge`` per-point workload; every engine row
carries ``seconds_first`` beside ``seconds_min`` because the first 1M
call in a process costs about twice a later one.

**engine_vector_traced** and **engine_vector_monitored** re-run the
2000-packet vector workload with a recorder + metrics registry and an
invariant monitor attached, respectively — the cost of feeding sinks
from the epoch schedule (``repro.obs.reconstruct``: per-event for the
recorder, per-window with array predicates for the registry and the
monitor). Both quote their overhead
against the same-process sinks-off ``engine_vector`` run, which keeps
its measurement name and workload string, so ``--check-regression``
continues to gate the zero-overhead disabled path against history.

**serve_fast** and **serve_vector** push the sensitivity workload
through the live daemon — ``ServiceClient.replay_trace`` chunks (one
column batch per ``POST /ingest`` — a packed binary frame since PR 23,
a JSON body before; NDJSON before PR 16, hence the new
workload string and a fresh ``--check-regression`` series), watermark-gated
streaming execution, then a drain — timing the full client→segment-
close path, the ingest rate (packets/sec through HTTP + parse + feed),
and the service's own first-feed→first-egress latency gauge. 50k
packets in a full run, 5k under ``--quick``. ``serve_vector`` also
quotes first egress as a fraction of segment close: the streaming win
over the seed buffer-at-close vector adapter, whose first egress *was*
segment close (fraction 1.0 by construction).

Every completed run (including ``--quick``) also appends one line to
``benchmarks/BENCH_history.jsonl`` — git SHA, timestamp, and all
measurements — so perf is trackable across commits; CI uploads the
file as a workflow artifact. ``--check-regression`` turns that log
into a gate: each timed measurement is compared against the most
recent history entry for the same measurement and workload, and the
run exits nonzero on a >``--max-slowdown`` (default 15%) slowdown.

Usage::

    PYTHONPATH=src python benchmarks/run_bench.py [--rounds 15] [--jobs 4]
    # CI smoke: fewer rounds, no sweep, fail if the tracing-disabled
    # engine regressed >10% against the committed BENCH_mp5.json:
    PYTHONPATH=src python benchmarks/run_bench.py --quick --check-baseline
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import tempfile
import time
from pathlib import Path

from repro.harness.runall import run_all
from repro.mp5 import ENGINES, MP5Config, run_mp5
from repro.obs import InvariantMonitor, MetricsRegistry, TraceRecorder
from repro.workloads import (
    clone_packets,
    make_sensitivity_program,
    sensitivity_trace,
)

# The engine workload of benchmarks/test_simulator_performance.py,
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
    monitored: bool = False,
    engine: str = "fast",
    num_packets: int = 2000,
) -> dict:
    program = make_sensitivity_program(4, 512)
    trace = sensitivity_trace(num_packets, 4, 4, 512, seed=0)
    runner = ENGINES[engine]
    times = []
    ticks = None
    events = None
    alerts = None
    for _ in range(rounds):
        batch = clone_packets(trace)
        recorder = TraceRecorder() if observed else None
        metrics = MetricsRegistry(window=100) if observed else None
        monitor = InvariantMonitor() if monitored else None
        start = time.perf_counter()
        stats, _ = runner(
            program,
            batch,
            MP5Config(num_pipelines=4),
            recorder=recorder,
            metrics=metrics,
            monitor=monitor,
        )
        times.append(time.perf_counter() - start)
        ticks = stats.ticks
        assert stats.egressed == num_packets
        if observed:
            events = len(recorder.events)
        if monitored:
            alerts = len(monitor.alerts)
            assert monitor.health_report().verdict == "ok"
    best = min(times)
    median = statistics.median(times)
    workload = f"sensitivity {num_packets} pkts, k=4, m=4, r=512"
    if engine != "fast":
        workload += f", {engine} engine"
    report = {
        "workload": workload,
        "rounds": rounds,
        "ticks": ticks,
        "seconds_min": round(best, 4),
        "seconds_median": round(median, 4),
        "seconds_first": round(times[0], 4),
        "ticks_per_sec": round(ticks / best),
    }
    if num_packets == 2000:
        # The seed baseline was measured on this exact workload only.
        report["speedup_vs_seed_min"] = round(
            SEED_BASELINE["engine_seconds_min"] / best, 2
        )
        report["speedup_vs_seed_median"] = round(
            SEED_BASELINE["engine_seconds_median"] / median, 2
        )
    if observed:
        report["events"] = events
    if monitored:
        report["alerts"] = alerts
    return report


def _trace_records(trace) -> list:
    """DataPackets → ``/ingest`` JSON records (ids are reassigned by
    the daemon in arrival order, so none are carried)."""
    records = []
    for p in trace:
        rec = {
            "arrival": p.arrival,
            "port": p.port,
            "headers": p.headers,
            "size": p.size_bytes,
        }
        if p.flow_id is not None:
            rec["flow"] = p.flow_id
        records.append(rec)
    return records


def bench_serve(
    engine: str, num_packets: int, rounds: int, chunk: int = 512
) -> dict:
    """Serve the sensitivity workload through the live daemon:
    ``replay_trace`` over HTTP with 429-backoff, watermark-gated streaming
    execution, drain. Each round is one segment on one long-lived
    service; backpressure retries are part of the measured path."""
    from repro.service.client import ServiceClient
    from repro.service.daemon import ServiceThread, SwitchService

    program = make_sensitivity_program(4, 512)
    trace = sensitivity_trace(num_packets, 4, 4, 512, seed=0)
    records = _trace_records(trace)
    service = SwitchService(
        program=program,
        engine=engine,
        config=MP5Config(num_pipelines=4),
        metrics=False,
    )
    totals, ingests, latencies = [], [], []
    retries = 0
    with ServiceThread(service) as thread:
        client = ServiceClient(*thread.address, timeout=120.0)
        client.wait_ready()
        for _ in range(rounds):
            start = time.perf_counter()
            sent = client.replay_trace(records, chunk=chunk)
            ingests.append(time.perf_counter() - start)
            record = client.drain()["closed_segment"]
            totals.append(time.perf_counter() - start)
            assert record["offered"] == num_packets, record
            assert record["drained"], record
            retries += sent["retries"]
            latency = client.metrics()["service"]["first_egress_latency"]
            if latency is not None:
                latencies.append(latency)
    return {
        "workload": (
            f"served sensitivity {num_packets} pkts, k=4, {engine} engine, "
            f"replay_trace chunk {chunk}"
        ),
        "rounds": rounds,
        "packets": num_packets,
        "seconds_min": round(min(totals), 4),
        "seconds_median": round(statistics.median(totals), 4),
        "ingest_seconds_min": round(min(ingests), 4),
        "ingest_pps": round(num_packets / min(ingests)),
        "first_egress_latency": (
            round(min(latencies), 4) if latencies else None
        ),
        "retries_429": retries,
    }


def _git_sha() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parent,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def append_history(report: dict, quick: bool, path: Path) -> None:
    """Append one line per completed run: perf over time, by commit."""
    record = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "git_sha": _git_sha(),
        "quick": quick,
        **report,
    }
    with path.open("a") as fh:
        fh.write(json.dumps(record) + "\n")


def check_baseline(engine: dict, baseline: dict, max_regression: float) -> int:
    """Compare the tracing-disabled engine time against the committed
    baseline; returns a nonzero exit code on regression."""
    if not baseline:
        print("no stored baseline; nothing to compare")
        return 0
    base_min = baseline["engine"]["seconds_min"]
    measured = engine["seconds_min"]
    ratio = measured / base_min
    verdict = "OK" if ratio <= 1 + max_regression else "REGRESSION"
    print(
        f"baseline check: measured {measured:.4f}s vs baseline "
        f"{base_min:.4f}s ({ratio:.2%} of baseline, limit "
        f"{1 + max_regression:.0%}) -> {verdict}"
    )
    return 0 if verdict == "OK" else 1


def load_history_latest(path: Path) -> dict:
    """Map each timed measurement to its most recent history entry.

    A history line flattens one report, so any value that is a dict with
    ``workload`` and ``seconds_min`` keys is a timed measurement. The
    map is keyed by ``(measurement name, workload string)`` — the
    traced/monitored variants share a workload string with the plain
    engine run but must never be compared against each other — and
    later lines overwrite earlier ones.
    """
    latest: dict = {}
    if not path.exists():
        return latest
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        for key, value in record.items():
            if (
                isinstance(value, dict)
                and "workload" in value
                and "seconds_min" in value
            ):
                latest[(key, value["workload"])] = value
    return latest


def check_regression(report: dict, latest: dict, max_slowdown: float) -> int:
    """Gate every timed measurement against its last history entry.

    Unlike ``check_baseline`` (which pins the fast engine to the
    committed BENCH_mp5.json), this compares each measurement's
    ``seconds_min`` to the most recent ``BENCH_history.jsonl`` record
    with the same workload string, so new measurements (e.g. the vector
    engine) are covered from their second run onward. Returns nonzero
    if any measurement slowed down more than ``max_slowdown``.
    """
    failures = []
    compared = 0
    for key, value in report.items():
        if not (
            isinstance(value, dict)
            and "workload" in value
            and "seconds_min" in value
        ):
            continue
        prev = latest.get((key, value["workload"]))
        if prev is None or prev["seconds_min"] <= 0:
            continue
        compared += 1
        ratio = value["seconds_min"] / prev["seconds_min"]
        verdict = "OK" if ratio <= 1 + max_slowdown else "REGRESSION"
        print(
            f"regression check: {key} ({value['workload']}): "
            f"{value['seconds_min']:.4f}s vs last {prev['seconds_min']:.4f}s "
            f"({ratio:.2%}, limit {1 + max_slowdown:.0%}) -> {verdict}"
        )
        if verdict != "OK":
            failures.append(key)
    if not compared:
        print("regression check: no matching history entries to compare")
    return 1 if failures else 0


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
        help="CI smoke: 5 rounds, skip the sweep, don't rewrite the "
        "stored baseline file",
    )
    parser.add_argument(
        "--check-baseline",
        action="store_true",
        help="exit 1 if the tracing-disabled engine time regressed more "
        "than --max-regression vs the stored BENCH_mp5.json",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.10,
        help="allowed fractional slowdown for --check-baseline "
        "(default 0.10 = 10%%)",
    )
    parser.add_argument(
        "--check-regression",
        action="store_true",
        help="exit 1 if any timed measurement slowed down more than "
        "--max-slowdown vs the last BENCH_history.jsonl entry with the "
        "same workload",
    )
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=0.15,
        help="allowed fractional slowdown for --check-regression "
        "(default 0.15 = 15%%)",
    )
    parser.add_argument(
        "--out",
        default=str(Path(__file__).resolve().parent / "BENCH_mp5.json"),
    )
    parser.add_argument(
        "--history",
        default=str(Path(__file__).resolve().parent / "BENCH_history.jsonl"),
        help="append-only JSONL perf log, one record per completed run",
    )
    args = parser.parse_args()

    out_path = Path(args.out)
    stored_baseline = (
        json.loads(out_path.read_text()) if out_path.exists() else {}
    )
    rounds = 5 if args.quick else args.rounds
    engine = bench_engine(rounds)
    engine_traced = bench_engine(rounds, observed=True)
    engine_monitored = bench_engine(rounds, monitored=True)
    engine_vector = bench_engine(rounds, engine="vector")
    # Vector speedup is quoted against the fast engine on the same
    # workload in the same process — the number the PR gates on.
    engine_vector["speedup_vs_fast_min"] = round(
        engine["seconds_min"] / engine_vector["seconds_min"], 2
    )
    engine_vector["speedup_vs_fast_median"] = round(
        engine["seconds_median"] / engine_vector["seconds_median"], 2
    )
    # Observability on the vector engine is fed post-run from the
    # schedule; quote its cost against the same-process sinks-off run.
    engine_vector_traced = bench_engine(rounds, observed=True, engine="vector")
    engine_vector_traced["overhead_vs_untraced"] = round(
        engine_vector_traced["seconds_min"] / engine_vector["seconds_min"] - 1,
        4,
    )
    engine_vector_monitored = bench_engine(
        rounds, monitored=True, engine="vector"
    )
    engine_vector_monitored["overhead_vs_unmonitored"] = round(
        engine_vector_monitored["seconds_min"] / engine_vector["seconds_min"]
        - 1,
        4,
    )
    # The 50k measurement keeps min-of-3 even under --quick: a single
    # round on a loaded 1-CPU host can spike 2-3x from scheduler
    # contention, which would trip the 15% --check-regression gate on
    # noise rather than a real slowdown.
    vector_50k = bench_engine(3, engine="vector", num_packets=50000)
    serve_packets = 5000 if args.quick else 50000
    serve_rounds = 2 if args.quick else 3
    serve_fast = bench_serve("fast", serve_packets, serve_rounds)
    serve_vector = bench_serve("vector", serve_packets, serve_rounds)
    if serve_vector["first_egress_latency"] is not None:
        # The seed buffer-at-close adapter's first egress was segment
        # close (fraction 1.0); streaming should put this well below it.
        serve_vector["first_egress_frac_of_close"] = round(
            serve_vector["first_egress_latency"]
            / serve_vector["seconds_min"],
            4,
        )
    overhead = engine_traced["seconds_min"] / engine["seconds_min"] - 1
    monitor_overhead = engine_monitored["seconds_min"] / engine["seconds_min"] - 1
    chaos = bench_chaos_smoke(args.jobs)
    report = {
        "engine": engine,
        "engine_traced": dict(
            engine_traced, overhead_vs_untraced=round(overhead, 4)
        ),
        "engine_monitored": dict(
            engine_monitored, overhead_vs_unmonitored=round(monitor_overhead, 4)
        ),
        "engine_vector": engine_vector,
        "engine_vector_traced": engine_vector_traced,
        "engine_vector_monitored": engine_vector_monitored,
        "vector_50k": vector_50k,
        "serve_fast": serve_fast,
        "serve_vector": serve_vector,
        "chaos_smoke": chaos,
        "seed_baseline": SEED_BASELINE,
    }
    if not args.quick:
        # Two rounds: the first 1M call in a process runs ~2x every
        # later one (not GC — gc.freeze() leaves it; cause otherwise
        # unattributed), so one round would record the cold cost as
        # the engine's speed. seconds_first keeps it on record.
        report["vector_1m"] = bench_engine(
            2, engine="vector", num_packets=1_000_000
        )
    if not chaos["jobs_invariant"]:
        raise SystemExit("chaos sweep diverged between serial and parallel")
    if not args.quick:
        report["sweep"] = bench_sweep(args.jobs)
        if not report["sweep"]["results_json_identical"]:
            raise SystemExit("serial and parallel results.json diverged")
        out_path.write_text(json.dumps(report, indent=2) + "\n")
    history_path = Path(args.history)
    # Snapshot the per-workload history *before* appending this run, so
    # the regression gate compares against the previous run, not itself.
    history_latest = (
        load_history_latest(history_path) if args.check_regression else {}
    )
    append_history(report, args.quick, history_path)
    print(json.dumps(report, indent=2))
    code = 0
    if args.check_baseline:
        code |= check_baseline(engine, stored_baseline, args.max_regression)
    if args.check_regression:
        code |= check_regression(report, history_latest, args.max_slowdown)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
