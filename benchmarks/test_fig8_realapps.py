"""Figure 8 (§4.4): real applications with realistic traffic.

Flowlet switching, CONGA, WFQ, and the network sequencer under bimodal
200 B / 1400 B packets and web-search flow sizes, swept over pipeline
counts. Shape criteria from the paper:

* every application sustains line rate at every pipeline count;
* per-stage queues stay bounded and small (paper maxima: 11/8/7/7);
* zero packet drops (queuing is bounded, so no FIFO overflows).
"""

import pytest

from repro.harness import RealAppSettings, render_figure8, run_figure8

from conftest import bench_params

PAPER_MAX_QUEUE = {"flowlet": 11, "conga": 8, "wfq": 7, "sequencer": 7}


def test_fig8_real_applications(show):
    params = bench_params()
    settings = RealAppSettings(
        num_packets=params["num_packets"], seeds=params["seeds"]
    )
    results = run_figure8(settings=settings)
    show(render_figure8(results))

    assert set(results) == {"flowlet", "conga", "wfq", "sequencer"}
    for app, points in results.items():
        for point in points:
            assert point.throughput > 0.97, (app, point.num_pipelines)
            assert point.dropped == 0, (app, point.num_pipelines)
        # Queues stay small and bounded — same order as the paper's
        # 11/8/7/7 maxima (we allow a small factor for simulator
        # differences, not unbounded growth).
        max_queue = max(p.max_queue_depth for p in points)
        assert max_queue <= 3 * PAPER_MAX_QUEUE[app] + 4, (app, max_queue)


def test_fig8_scalar_state_limit_beyond_sweep():
    """§3.5.2 check: past the sweep, a global-register application is
    fundamentally limited to mean_packet_size/(64*k) of line rate — at
    k=16 with ~740 B mean packets that is ~0.72, not line rate."""
    from repro.apps import SEQUENCER
    from repro.harness import run_application

    params = bench_params()
    settings = RealAppSettings(
        num_packets=params["num_packets"], seeds=params["seeds"][:1]
    )

    points = run_application(
        SEQUENCER, pipeline_counts=(16,), settings=settings
    )
    (point,) = points
    mean_bytes = 0.55 * 200 + 0.45 * 1400
    fundamental = mean_bytes / (64 * 16)
    assert point.throughput == pytest.approx(fundamental, abs=0.05)
    assert point.throughput < 0.85  # clearly below line rate
