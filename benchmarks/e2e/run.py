"""End-to-end benchmark of the MP5 reproduction: one command, five
workloads, every output checked.

Driver form (one workload, one run; the last stdout line is the result)::

    python3 benchmarks/e2e/run.py --workload serve_stream --seed 3 \\
        --seconds 15 --trace 0

Everything at once (interleaved passes, then one traced run per
workload), as ``compare.py`` reads it::

    python3 benchmarks/e2e/run.py --seed 3 --out A.json

``--smoke`` runs all five workloads at 1/20 size with the checks on;
``--selftest`` proves that a wrong digest and a dead daemon both end as
failed operations and a non-zero exit. README.md has the catalogue.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from catalog import END_TO_END, PER_LAYER
from host import SPIN_REFERENCE_S, spin

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = ROOT / ".bench_e2e"

MIN_ITERATIONS = 5
SETUP_SAMPLES = 3
CHILD_TIMEOUT = 180.0
SMOKE_SCALE = 0.05


class BenchError(RuntimeError):
    """The benchmark could not produce a result at all."""


# ----------------------------------------------------------------------
# One workload, one run
# ----------------------------------------------------------------------


def set_up(name: str, seed: int, scale: float):
    """``import repro`` -> compile -> trace generation -> (served) daemon
    spawn until ``/health`` answers -> warm-up iterations. Returns the
    ready workload and the seconds all of that took, scaled to the
    reference host speed by a spin before and one after."""
    before = spin()
    start = time.perf_counter()
    from workloads import WARMUPS, WORKLOADS

    workload = WORKLOADS[name](seed, scale)
    try:
        workload.build()
        workload.open()
        for _ in range(WARMUPS):
            it = workload.iterate()
            if it.failed or it.problems:
                raise BenchError(f"warm-up failed: {it.problems}")
    except BaseException:
        workload.close()
        raise
    seconds = time.perf_counter() - start
    return workload, seconds * SPIN_REFERENCE_S / ((before + spin()) / 2.0)


def run_window(workload, seconds: float) -> List:
    """Iterations back to back until ``seconds`` are spent; stops early
    at the first failure, which already makes the run incorrect."""
    iterations = []
    deadline = time.perf_counter() + seconds
    while True:
        it = workload.iterate()
        iterations.append(it)
        if it.failed or it.problems:
            break
        if len(iterations) >= MIN_ITERATIONS and time.perf_counter() >= deadline:
            break
    return iterations


def probe_setups(args, count: int) -> List[float]:
    """Set the workload up ``count`` more times, each in a fresh
    interpreter (``import repro`` is part of set-up)."""
    samples = []
    for _ in range(count):
        out = child(
            ["--setup-probe", "--workload", args.workload, "--seed", str(args.seed),
             "--scale", str(args.scale)]
        )
        samples.append(out["setup_s"])
    return samples


def arm_daemon_kill(workload) -> None:
    """Selftest: SIGKILL the daemon in the middle of the second
    measured segment."""
    client = workload.daemon.client
    inner = client.ingest
    per_segment = workload.chunks_per_segment
    kill_at = per_segment + (per_segment + 2) // 2
    calls = 0

    def ingest(part):
        nonlocal calls
        calls += 1
        if calls == kill_at:
            os.kill(workload.daemon.proc.pid, signal.SIGKILL)
        return inner(part)

    client.ingest = ingest


def measure(args) -> int:
    workload, setup_s = set_up(args.workload, args.seed, args.scale)
    problems: List[str] = []
    spans = None
    traced = None
    try:
        if args.inject == "kill-daemon":
            arm_daemon_kill(workload)
        if args.trace:
            from layers import Spans, trace_run

            spans = Spans()
            traced = trace_run(workload, args.seconds, spans)
            iterations = traced["iterations"]
            problems.extend(traced["problems"])
        else:
            iterations = run_window(workload, args.seconds)
        # Read before the reference run below can raise the high-water mark.
        self_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        workload.close()

    expected = workload.reference()
    if args.inject == "corrupt-reference":
        expected = "0" * 64
    problems.extend(workload.extra_checks())
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    for it in iterations:
        bad = list(it.problems)
        if not it.failed and it.digest != expected:
            bad.append(f"output digest {it.digest} != reference {expected}")
        if bad and not it.failed:
            failed += 1
        problems.extend(bad)
    good = [it for it in iterations if not it.failed]
    if len({(it.egressed, it.dropped, it.ticks) for it in good}) > 1:
        problems.append("simulated counts differ between iterations of one trace")

    if args.trace:
        metrics = traced["metrics"]
        metrics["bench.reference_s"] = workload.reference_s
        units = {name: unit for name, unit, _better in PER_LAYER}
        OUT_DIR.mkdir(exist_ok=True)
        spans.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        setups = [setup_s] + probe_setups(args, args.setup_samples - 1)
        metrics = end_to_end(workload, good, setups, self_rss_mb)
        units = {name: unit for name, unit, _better, _bound in END_TO_END}
        if good:
            raw = workload.packets / statistics.median(it.wall for it in good)
            print(
                f"# unscaled pkts_per_s={raw:.1f}; host spin median "
                f"{statistics.median(workload.clock.spins) * 1e3:.2f} ms "
                f"over {len(workload.clock.spins)} spins"
            )

    correct = failed == 0 and not problems
    for line in problems[:10]:
        print(f"PROBLEM {line}", file=sys.stderr)
    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} "
        f"iterations={len(iterations)} packets/iteration={workload.packets}"
    )
    for name, value in metrics.items():
        print(f"{name:<36} {value:>16.6f} {units[name]}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, attempted),
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


def end_to_end(workload, good: List, setups: List[float], self_rss_mb: float) -> Dict[str, float]:
    """Every host time is scaled to the reference host speed (host.py)."""
    packets = workload.packets
    if not good:
        return {name: 0.0 for name, _unit, _better, _bound in END_TO_END}
    wall = statistics.median(it.wall * it.host_factor for it in good)
    cpu_per_pkt = sum(it.cpu * it.host_factor for it in good) / (len(good) * packets)
    rss_mb = self_rss_mb
    if workload.served:
        # The daemon's whole life (start-up, warm-ups, measured window)
        # over every packet it served; the client's CPU over the timed
        # part of the measured segments.
        cpu_per_pkt += (
            workload.daemon.cpu_seconds() * workload.clock.median_factor()
            / max(1, workload.served_packets)
        )
        rss_mb = workload.daemon.peak_rss_mb()
    return {
        "setup_s": statistics.median(setups),
        "pkts_per_s": packets / wall,
        "cpu_s_per_mpkt": cpu_per_pkt * 1e6,
        "peak_rss_mb": rss_mb,
        "sim_norm_throughput": good[0].norm_throughput,
    }


def setup_probe(args) -> int:
    workload, seconds = set_up(args.workload, args.seed, args.scale)
    workload.close()
    print(json.dumps({"setup_s": seconds}))
    return 0


# ----------------------------------------------------------------------
# Many runs: children of this script, so each is what the driver runs
# ----------------------------------------------------------------------


def child(extra: List[str], check: bool = True) -> Dict:
    """Run this script again with ``extra`` arguments; returns the JSON
    object on its last stdout line, plus its exit code."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *extra],
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT,
    )
    lines = proc.stdout.strip().splitlines()
    if check and proc.returncode != 0:
        raise BenchError(f"run.py {' '.join(extra)} exited {proc.returncode}")
    if not lines:
        raise BenchError(f"run.py {' '.join(extra)} printed no result")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    return result


def workload_names() -> List[str]:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [w["name"] for w in contract["workloads"]]


def run_args(name: str, args, trace: int) -> List[str]:
    return [
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(trace), "--scale", str(args.scale),
        "--setup-samples", str(args.setup_samples),
    ]


def run_all(args) -> int:
    """Every workload, ``--passes`` times, interleaved (A, B, .., E, A,
    ..) so that a slow spell of the host spreads over all of them; then
    one traced run each."""
    names = workload_names()
    doc = {
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "workloads": {name: {"runs": [], "traced": None} for name in names},
    }
    for _ in range(args.passes):
        for name in names:
            doc["workloads"][name]["runs"].append(child(run_args(name, args, 0), check=False))
    if not args.no_trace:
        for name in names:
            doc["workloads"][name]["traced"] = child(run_args(name, args, 1), check=False)
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    ok = True
    for name, entry in doc["workloads"].items():
        runs = entry["runs"] + ([entry["traced"]] if entry["traced"] else [])
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        ok = ok and all(r["correct"] and r["exit_code"] == 0 for r in runs)
        print(
            f"# {name}: ops_attempted={attempted} ops_failed={failed} "
            f"fail_frac={failed / attempted:.6f}"
        )
        for metric, unit, _better, _bound in END_TO_END:
            values = [r["metrics"][metric]["value"] for r in entry["runs"]]
            print(
                f"{name:<18} {metric:<36} {statistics.median(values):>16.6f} {unit:<10} "
                f"runs={[round(v, 6) for v in values]}"
            )
        if entry["traced"]:
            for metric, cell in entry["traced"]["metrics"].items():
                print(f"{name:<18} {metric:<36} {cell['value']:>16.6f} {cell['unit']}")
    print("ALL CORRECT" if ok else "FAILED: see PROBLEM lines above")
    return 0 if ok else 1


def selftest() -> int:
    """A benchmark that cannot fail cannot be trusted to pass."""
    cases = [
        ("offline_vector", "corrupt-reference"),
        ("serve_segments", "kill-daemon"),
    ]
    ok = True
    for name, inject in cases:
        start = time.perf_counter()
        result = child(
            ["--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0",
             "--scale", str(SMOKE_SCALE), "--setup-samples", "1", "--inject", inject],
            check=False,
        )
        caught = (
            result["exit_code"] != 0 and result["failed"] > 0 and not result["correct"]
        )
        ok = ok and caught
        print(
            f"selftest {inject} on {name}: exit={result['exit_code']} "
            f"failed={result['failed']}/{result['attempted']} "
            f"in {time.perf_counter() - start:.1f}s -> {'caught' if caught else 'MISSED'}"
        )
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload (the driver's form)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0, help="measured window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="all-workloads form: write every run's result here")
    parser.add_argument("--passes", type=int, default=3, help="interleaved passes (>= 3)")
    parser.add_argument("--no-trace", action="store_true", help="skip the traced runs")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--scale", type=float, default=1.0, help="packet-count multiplier")
    parser.add_argument("--setup-samples", type=int, default=SETUP_SAMPLES)
    parser.add_argument("--inject", choices=("corrupt-reference", "kill-daemon"))
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to benchmark under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    if args.selftest:
        return selftest()
    if args.smoke:
        args.scale, args.seconds, args.passes = SMOKE_SCALE, 1.0, 1
        args.setup_samples, args.no_trace = 1, True
    if args.setup_probe:
        return setup_probe(args)
    if args.workload:
        return measure(args)
    return run_all(args)


if __name__ == "__main__":
    raise SystemExit(main())
