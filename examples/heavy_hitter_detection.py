#!/usr/bin/env python3
"""Heavy-hitter detection across four pipelines with dynamic sharding.

The motivating example of design principle D2 (§3.1): a per-source
packet-counter table that must be sharded across pipelines for line-rate
processing, under a skewed (heavy-tailed) source distribution. The
script contrasts three designs on the same traffic:

* MP5 with dynamic sharding (the full system),
* MP5 with static random sharding (no runtime remap),
* the naive design with all state in one pipeline.

Run:  python examples/heavy_hitter_detection.py
"""

import numpy as np

from repro.baselines import run_single_pipeline_state, static_shard_config
from repro.compiler import compile_program
from repro.mp5 import MP5Config, run_mp5
from repro.workloads import SkewedAccess, line_rate_trace


def main() -> None:
    num_pipelines = 4
    program = compile_program("heavy_hitter")
    # Heavy-tailed sources: 90% of traffic from ~25 hot addresses. Each
    # hot counter bucket carries well under one pipeline's capacity, so
    # the remap heuristic can legally move buckets (their in-flight
    # counters drain), while a random static placement leaves one
    # pipeline oversubscribed — the case dynamic sharding (D2) fixes.
    sources = SkewedAccess(size=512, hot_fraction=0.05, hot_weight=0.9)

    def headers(rng: np.random.Generator, i: int) -> dict:
        return {"src_ip": sources.sample(rng), "hot": 0}

    trace = line_rate_trace(12000, num_pipelines, headers, seed=7)

    dynamic_stats, dynamic_regs = run_mp5(
        program, trace, MP5Config(num_pipelines=num_pipelines)
    )
    static_stats, _ = run_mp5(
        program, trace, static_shard_config(num_pipelines=num_pipelines)
    )
    naive_stats, _ = run_single_pipeline_state(
        program, trace, MP5Config(num_pipelines=num_pipelines)
    )

    print("Design                         throughput  remaps  max queue")
    print("-----------------------------  ----------  ------  ---------")
    for name, stats in [
        ("MP5 (dynamic sharding)", dynamic_stats),
        ("MP5 (static random sharding)", static_stats),
        ("naive single-pipeline state", naive_stats),
    ]:
        print(
            f"{name:29s}  {stats.throughput_normalized():10.3f}  "
            f"{stats.remap_moves:6d}  {stats.max_queue_depth:9d}"
        )

    counts = dynamic_regs["counts"]
    top = sorted(range(len(counts)), key=lambda i: -counts[i])[:5]
    print("\nTop-5 heavy-hitter buckets (index: packets):")
    for idx in top:
        print(f"  counts[{idx}] = {counts[idx]}")
    speedup = dynamic_stats.throughput_normalized() / max(
        static_stats.throughput_normalized(), 1e-9
    )
    print(f"\nDynamic vs static sharding speedup: {speedup:.2f}x "
          f"(paper band on skewed access: 1.1-3.3x)")


if __name__ == "__main__":
    main()
