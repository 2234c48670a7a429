"""Compare two result files of ``run.py --out``: ``compare.py A.json B.json``.

For every workload x end-to-end metric: B's median as a ratio of A's,
with A's median (the base) beside it, and a verdict:

* ``WORSE``       B's median is worse than A's by more than the bound;
* ``unresolved``  the run-to-run spread of either side exceeds the
                  bound, and the two sides' runs overlap: the benchmark
                  cannot tell, which is not the same as "unchanged";
* ``ok``          otherwise.

Simulated results and exact counts must be identical when A and B ran
the same seed; any difference is reported and fails the comparison.
Per-layer metrics are printed as ratios with their base and no verdict.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

from catalog import END_TO_END, EXACT_COUNTS, PER_LAYER


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median; with
    fewer than two runs there is no spread to speak of."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def judge(a: List[float], b: List[float], better: str, bound: float) -> Dict:
    base = statistics.median(a)
    new = statistics.median(b)
    ratio = new / base
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    apart = max(b) < min(a) or min(b) > max(a)  # no run of one side inside the other's range
    spread_a, spread_b = spread(a), spread(b)
    if max(spread_a, spread_b) > bound and not apart:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "WORSE"
    else:
        verdict = "ok"
    return {
        "base": base,
        "new": new,
        "ratio": ratio,
        "worse_by": worse_by,
        "bound": bound,
        "spread_a": spread_a,
        "spread_b": spread_b,
        "verdict": verdict,
    }


def values(entry: Dict, metric: str) -> List[float]:
    return [run["metrics"][metric]["value"] for run in entry["runs"]]


def compare(a: Dict, b: Dict) -> Dict:
    same_seed = a["seed"] == b["seed"] and a["scale"] == b["scale"]
    report = {
        "seed_a": a["seed"],
        "seed_b": b["seed"],
        "end_to_end": {},
        "per_layer": {},
        "exact": {},
        "operations": {},
    }
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"][name]
        report["end_to_end"][name] = {
            metric: judge(values(entry_a, metric), values(entry_b, metric), better, bound)
            for metric, _unit, better, bound in END_TO_END
        }
        ops = {}
        for side, entry in (("a", entry_a), ("b", entry_b)):
            runs = entry["runs"] + ([entry["traced"]] if entry["traced"] else [])
            attempted = sum(run["attempted"] for run in runs)
            failed = sum(run["failed"] for run in runs)
            ops[side] = {
                "ops_attempted": attempted,
                "ops_failed": failed,
                "fail_frac": failed / attempted,
            }
        report["operations"][name] = ops
        exact = {}
        if same_seed:
            sims = set(values(entry_a, "sim_norm_throughput"))
            sims.update(values(entry_b, "sim_norm_throughput"))
            exact["sim_norm_throughput"] = len(sims) == 1
        traced_a, traced_b = entry_a["traced"], entry_b["traced"]
        if traced_a and traced_b:
            layers = {}
            for metric, unit, _better in PER_LAYER:
                base = traced_a["metrics"][metric]["value"]
                new = traced_b["metrics"][metric]["value"]
                if base or new:
                    layers[metric] = {
                        "base": base,
                        "new": new,
                        "ratio": new / base if base else None,
                        "unit": unit,
                    }
                if same_seed and metric in EXACT_COUNTS:
                    exact[metric] = base == new
            report["per_layer"][name] = layers
        report["exact"][name] = exact
    return report


def render(report: Dict) -> int:
    bad = 0
    print(f"{'workload':<18} {'metric':<22} {'ratio':>8} {'base (A median)':>18} "
          f"{'bound':>6} {'spreadA':>8} {'spreadB':>8}  verdict")
    for name, metrics in report["end_to_end"].items():
        for metric, row in metrics.items():
            print(
                f"{name:<18} {metric:<22} {row['ratio']:>8.4f} {row['base']:>18.6g} "
                f"{row['bound']:>6.2f} {row['spread_a']:>8.4f} {row['spread_b']:>8.4f}  "
                f"{row['verdict']}"
            )
            bad += row["verdict"] == "WORSE"
    for name, ops in report["operations"].items():
        for side in ("a", "b"):
            cell = ops[side]
            print(
                f"{name:<18} fail_frac[{side.upper()}] = {cell['fail_frac']:.6f} "
                f"(ops_failed {cell['ops_failed']} / ops_attempted {cell['ops_attempted']})"
            )
            bad += cell["ops_failed"] > 0
    differing = [
        (name, metric)
        for name, exact in report["exact"].items()
        for metric, same in exact.items()
        if not same
    ]
    for name, metric in differing:
        print(f"{name:<18} {metric:<22} DIFFERS between A and B on one seed")
    if any(report["exact"].values()) and not differing:
        print("exact: simulated throughput and exact counts identical in A and B")
    bad += len(differing)
    for name, layers in report["per_layer"].items():
        for metric, row in layers.items():
            ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.4f}"
            print(f"{name:<18} {metric:<36} {ratio:>8} base {row['base']:.6g} {row['unit']}")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--out", type=Path, help="also write the report as JSON")
    args = parser.parse_args(argv)
    report = compare(json.loads(args.a.read_text()), json.loads(args.b.read_text()))
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return render(report)


if __name__ == "__main__":
    sys.exit(main())
