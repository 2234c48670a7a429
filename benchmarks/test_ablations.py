"""Ablation benchmarks for MP5's design choices (DESIGN.md §5).

Beyond the paper's own D2/D3/D4 microbenchmarks, these sweep the two
free parameters of the runtime the paper fixes by fiat:

* **remap period** — the Figure 6 heuristic runs "every few 100s of
  clock cycles"; we sweep the period (plus never / near-optimal) and
  check that 100 cycles sits on the flat part of the curve;
* **FIFO capacity** — §4.2 sizes each ring buffer at 8 entries,
  "sufficient to avoid tail drops based on observations in §4.4"; we
  verify 8 entries are indeed lossless for the real applications while
  tiny FIFOs do drop under synthetic worst-case load.
"""

import numpy as np

from repro.apps import FIGURE8_APPS
from repro.harness import format_table
from repro.mp5 import MP5Config, run_mp5
from repro.workloads import (
    clone_packets,
    make_sensitivity_program,
    sensitivity_trace,
)

from conftest import bench_params


def _throughput(program, trace, config):
    stats, _ = run_mp5(program, clone_packets(trace), config)
    return stats.throughput_normalized()


def test_ablation_remap_period(show):
    params = bench_params()
    program = make_sensitivity_program(4, 512)

    def sweep():
        rows = []
        for label, config_kwargs in [
            ("never", dict(remap_algorithm="none", initial_shard="random")),
            ("period=50", dict(remap_period=50)),
            ("period=100", dict(remap_period=100)),
            ("period=400", dict(remap_period=400)),
            ("period=1600", dict(remap_period=1600)),
            ("optimal@100", dict(remap_algorithm="optimal", remap_period=100)),
        ]:
            scores = []
            for seed in params["seeds"]:
                trace = sensitivity_trace(
                    params["num_packets"], 4, 4, 512, pattern="skewed", seed=seed
                )
                scores.append(
                    _throughput(
                        program, trace, MP5Config(num_pipelines=4, **config_kwargs)
                    )
                )
            rows.append((label, float(np.mean(scores))))
        return rows

    rows = sweep()
    show(format_table(["remap policy", "throughput"], rows,
                      title="Ablation: dynamic sharding remap period (skewed)"))
    scores = dict(rows)
    # Any periodic remapping beats never remapping...
    assert scores["period=100"] > scores["never"]
    # ...and the paper's choice of ~100 cycles is within noise of the
    # best periodic setting.
    best_periodic = max(
        v for k, v in scores.items() if k.startswith("period=")
    )
    assert scores["period=100"] > best_periodic - 0.05
    # The near-optimal repacker does not beat the heuristic by much —
    # the justification for shipping the cheap single-move heuristic.
    assert scores["optimal@100"] < scores["period=100"] + 0.08


def test_ablation_fifo_capacity(show):
    params = bench_params()

    def sweep():
        rows = []
        # Real applications: 8-entry ring buffers are lossless (§4.2).
        for app in FIGURE8_APPS:
            program = app.compile()
            trace = app.workload(params["num_packets"], 4, seed=0)
            stats, _ = run_mp5(
                program, trace, MP5Config(num_pipelines=4, fifo_capacity=8)
            )
            rows.append((f"{app.name} (cap=8)", stats.dropped, stats.egressed))
        # Synthetic worst case: a global counter at 64 B line rate
        # overflows any finite FIFO.
        program = make_sensitivity_program(1, 1)
        trace = sensitivity_trace(params["num_packets"], 4, 1, 1, seed=0)
        stats, _ = run_mp5(
            program, trace, MP5Config(num_pipelines=4, fifo_capacity=8)
        )
        rows.append(("global counter (cap=8)", stats.dropped, stats.egressed))
        return rows

    rows = sweep()
    show(format_table(["scenario", "drops", "egressed"], rows,
                      title="Ablation: 8-entry FIFOs (the paper's sizing)"))
    by_name = {name: drops for name, drops, _e in rows}
    for app in FIGURE8_APPS:
        assert by_name[f"{app.name} (cap=8)"] == 0, app.name
    assert by_name["global counter (cap=8)"] > 0


def test_ablation_ecn_marking_gives_early_signal(show):
    """§3.4's suggested ECN-style backpressure: under inadmissible load
    the marking rate rises well before drops would occur with adaptive
    FIFOs, giving senders a usable congestion signal."""
    params = bench_params()
    program = make_sensitivity_program(1, 8)  # hot 8-entry register

    def sweep():
        rows = []
        for utilization in (0.2, 0.5, 1.0):
            trace = sensitivity_trace(
                max(1000, params["num_packets"] // 2), 4, 1, 8, seed=0
            )
            # Rescale arrivals to the target utilization.
            for pkt in trace:
                pkt.arrival = pkt.arrival / utilization
            stats, _ = run_mp5(
                program, trace, MP5Config(num_pipelines=4, ecn_threshold=8)
            )
            rows.append(
                (f"load={utilization:.1f}", stats.ecn_marked, stats.dropped)
            )
        return rows

    rows = sweep()
    show(format_table(["offered load", "ECN marks", "drops"], rows,
                      title="Ablation: ECN marking vs offered load"))
    marks = {name: m for name, m, _d in rows}
    assert marks["load=0.2"] == 0  # admissible: no signal
    assert marks["load=1.0"] > marks["load=0.5"]  # signal grows with load
    assert marks["load=1.0"] > 0


def test_ablation_affinity_spray(show):
    """Extension ablation: entering each packet at the pipeline of its
    first state access (the ingress evaluates the same stateless
    resolution logic) should cut crossbar traffic substantially at equal
    throughput — relevant because the crossbars dominate MP5's silicon
    area (§4.2)."""
    from repro.compiler import compile_program
    from repro.mp5 import MP5Switch

    params = bench_params()
    program = compile_program("heavy_hitter")

    from repro.workloads import line_rate_trace

    def sweep():
        rows = []
        for policy in ("roundrobin", "affinity"):
            trace = line_rate_trace(
                params["num_packets"],
                4,
                lambda r, i: {"src_ip": int(r.integers(0, 1024)), "hot": 0},
                seed=0,
            )
            switch = MP5Switch(
                program,
                MP5Config(
                    num_pipelines=4, spray_policy=policy, record_crossbar=True
                ),
            )
            stats = switch.run(trace)
            rows.append(
                (
                    policy,
                    stats.throughput_normalized(),
                    stats.steering_moves,
                    switch.crossbar.crossing_fraction(),
                )
            )
        return rows

    rows = sweep()
    show(format_table(["spray", "throughput", "steering", "crossing frac"],
                      rows, title="Ablation: ingress affinity spray"))
    by_policy = {r[0]: r for r in rows}
    assert by_policy["affinity"][2] < 0.7 * by_policy["roundrobin"][2]
    assert by_policy["affinity"][1] > by_policy["roundrobin"][1] - 0.03
