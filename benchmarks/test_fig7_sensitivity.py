"""Figure 7 (§4.3.3): throughput sensitivity to switch parameters.

Each test regenerates one panel (MP5 + the ideal baseline, averaged over
independent streams) and asserts the paper's shape:

* 7a — throughput decreases with pipeline count, but gently (the paper
  sees a 25% total drop from 1 to 16 pipelines);
* 7b — throughput decreases with stateful-stage count (~20% from 0 to 10);
* 7c — throughput rises with register size from the 1/k floor at size 1;
* 7d — throughput rises with packet size and hits line rate by 128 B;
* everywhere — MP5 stays close to the ideal design.
"""

import pytest

from repro.harness import (
    SweepSettings,
    render_sweep,
    sweep_packet_size,
    sweep_pipelines,
    sweep_register_size,
    sweep_stateful_stages,
)

from conftest import bench_params

SETTINGS = SweepSettings(**bench_params())

GAP_TOLERANCE = 0.12  # "MP5 closely matches the ideal" (§4.3.3)


def test_fig7a_pipelines(show):
    points = sweep_pipelines(SETTINGS)
    show(render_sweep(points, "7a"))
    tputs = [p.mp5_throughput for p in points]
    # Single pipeline processes at line rate; contention grows with k.
    assert tputs[0] > 0.99
    assert tputs[-1] < tputs[0]
    # The decrease is "not aggressive": <= ~30% from 1 to 16 pipelines.
    assert tputs[0] - tputs[-1] < 0.30
    # Broadly monotone non-increasing (allow small seed noise).
    for a, b in zip(tputs, tputs[1:]):
        assert b <= a + 0.03
    for p in points:
        assert p.gap_to_ideal < GAP_TOLERANCE


def test_fig7b_stateful_stages(show):
    points = sweep_stateful_stages(SETTINGS)
    show(render_sweep(points, "7b"))
    tputs = [p.mp5_throughput for p in points]
    assert tputs[0] > 0.99  # zero stateful stages = stateless = line rate
    assert tputs[-1] < tputs[0]
    assert tputs[0] - tputs[-1] < 0.30  # paper: ~20% drop 0 -> 10
    for a, b in zip(tputs, tputs[1:]):
        assert b <= a + 0.03
    for p in points:
        assert p.gap_to_ideal < GAP_TOLERANCE


def test_fig7c_register_size(show):
    points = sweep_register_size(SETTINGS)
    show(render_sweep(points, "7c"))
    tputs = {p.value: p.mp5_throughput for p in points}
    # Size 1: every packet contends for a single state -> 1/k floor.
    assert tputs[1] == pytest.approx(0.25, abs=0.04)
    # Throughput grows steadily with register size.
    assert tputs[16] > tputs[1]
    assert tputs[256] > tputs[16]
    assert tputs[4096] > 3 * tputs[1]


def test_fig7d_packet_size(show):
    points = sweep_packet_size(SETTINGS)
    show(render_sweep(points, "7d"))
    tputs = {p.value: p.mp5_throughput for p in points}
    # Larger packets widen the processing budget...
    assert tputs[1500] >= tputs[256] >= tputs[64] - 0.02
    # ...and "MP5 hits line rate with packet sizes as small as 128 bytes".
    assert tputs[128] > 0.99
    assert tputs[1500] > 0.99
