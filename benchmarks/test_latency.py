"""Latency extension benchmark: pipeline latency vs offered load.

Not a paper figure — the paper reports throughput and queue maxima — but
the latency distribution is the flip side of the same queueing behaviour
and validates the engine against queueing theory: latency should sit at
the pipeline transit time for admissible load and grow hockey-stick as
offered load approaches a program's fundamental limit (§3.5.2).
"""

import numpy as np

from repro.analysis import md1_mean_in_system
from repro.harness import format_table
from repro.mp5 import MP5Config, run_mp5
from repro.workloads import make_sensitivity_program, sensitivity_trace

from conftest import bench_params

LOADS = (0.3, 0.5, 0.7, 0.9)


def test_latency_vs_load(show):
    params = bench_params()
    program = make_sensitivity_program(1, 4096)
    depth = 16

    def sweep():
        rows = []
        for load in LOADS:
            trace = sensitivity_trace(
                params["num_packets"], 4, 1, 4096, pattern="uniform", seed=0
            )
            for pkt in trace:
                pkt.arrival = pkt.arrival / load
            stats, _ = run_mp5(program, trace, MP5Config(num_pipelines=4))
            rows.append(
                (
                    load,
                    stats.mean_latency,
                    stats.latency_percentile(50),
                    stats.latency_percentile(99),
                    stats.throughput_normalized(),
                )
            )
        return rows

    rows = sweep()
    show(
        format_table(
            ["load", "mean", "p50", "p99", "throughput"],
            rows,
            title="Latency (ticks) vs offered load — 16-stage pipeline, "
            "1 stateful stage",
        )
    )

    by_load = {r[0]: r for r in rows}
    # Admissible load: latency ~ pipeline transit, stable throughput.
    assert by_load[0.3][1] < depth + 2
    for load in LOADS:
        assert by_load[load][4] > 0.98  # all loads below the limit
    # Latency grows monotonically with load, convexly at the tail.
    means = [by_load[load][1] for load in LOADS]
    assert means == sorted(means)
    # Queueing excess at 0.9 should exceed the M/D/1 prediction at 0.5
    # by a wide margin (convexity), and p99 >> p50 at high load.
    assert (by_load[0.9][1] - depth) > (by_load[0.5][1] - depth) * 2
    assert by_load[0.9][3] > by_load[0.9][2]
    # Sanity anchor against theory: the excess at 0.7 is within a small
    # factor of the M/D/1 in-system prediction (binomial arrivals queue
    # less than Poisson, so we bound from above only).
    assert (by_load[0.7][1] - depth) < 6 * md1_mean_in_system(0.7)
