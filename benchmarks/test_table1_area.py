"""Table 1 (§4.2): chip area, clock speed, and SRAM overhead.

Regenerates every (k, s) cell of Table 1 from the analytic model and
checks the paper's claims: every configuration meets 1 GHz, area grows
linearly in stages and quadratically in pipelines, the 4x16
configuration costs only 0.5-1% of a commercial ASIC, and the sharding
metadata is ~35 KB of SRAM per pipeline.
"""

import pytest

from repro.asic import (
    chip_area,
    chip_area_mm2,
    model_error_vs_paper,
    sram_overhead_paper_example,
)
from repro.harness import render_table1, run_table1


def test_table1_area_and_clock(show):
    cells = run_table1()
    show(render_table1(cells))

    assert len(cells) == 12
    # Claim 1: clock target met everywhere.
    assert all(c.meets_1ghz for c in cells)
    # Claim 2: model tracks the published table.
    assert max(model_error_vs_paper().values()) < 0.05
    # Claim 3: linear in stages...
    by_ks = {(c.pipelines, c.stages): c.area_mm2 for c in cells}
    for k in (2, 4, 8):
        assert by_ks[(k, 8)] == pytest.approx(2 * by_ks[(k, 4)], rel=0.01)
        assert by_ks[(k, 16)] == pytest.approx(4 * by_ks[(k, 4)], rel=0.01)
    # ... and quadratic in pipelines.
    for s in (4, 8, 12, 16):
        assert 3.0 < by_ks[(4, s)] / by_ks[(2, s)] < 5.0
        assert 3.0 < by_ks[(8, s)] / by_ks[(4, s)] < 5.0


def test_table1_overhead_vs_commercial_asic():
    breakdown = chip_area(4, 16)
    # §4.2: "the total area overhead for 4 pipelines and 16 stages is
    # only 3.36 mm^2 ... 0.5-1% overhead" against 300-700 mm^2 ASICs.
    assert breakdown.total_mm2 == pytest.approx(3.36, rel=0.05)
    assert 0.004 <= breakdown.total_mm2 / 700 <= 0.011
    assert 0.004 <= breakdown.total_mm2 / 300 <= 0.012
    # Doubling to 8 pipelines: still 2-4% for 16 stages.
    eight = chip_area_mm2(8, 16)
    assert 0.018 <= eight / 700 and eight / 300 <= 0.045


def test_table1_sram_overhead():
    report = sram_overhead_paper_example()
    # "the total SRAM overhead only comes to about 35 KB per pipeline"
    assert 33 <= report.kilobytes <= 38
    # "quite nominal given ... 50-100 MB of SRAM"
    assert report.fraction_of_switch_sram(50 * 1024 * 1024) < 0.001
