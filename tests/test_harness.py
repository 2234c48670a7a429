"""Tests for the experiment harness (scaled-down runs of every driver)."""

from dataclasses import replace

import pytest

from repro.harness import (
    MicrobenchSettings,
    RealAppSettings,
    SweepSettings,
    format_table,
    render_figure8,
    render_microbench,
    render_sweep,
    render_table1,
    run_application,
    run_d2,
    run_d3,
    run_d4,
    run_table1,
    sweep_packet_size,
    sweep_pipelines,
)
from repro.apps import FLOWLET

SMALL_MICRO = MicrobenchSettings(num_packets=1200, seeds=(0,))
SMALL_SWEEP = SweepSettings(num_packets=1200, seeds=(0,))


class TestTable1Driver:
    def test_twelve_cells(self):
        cells = run_table1()
        assert len(cells) == 12

    def test_all_cells_meet_clock_target(self):
        assert all(c.meets_1ghz for c in run_table1())

    def test_model_close_to_paper(self):
        for cell in run_table1():
            assert cell.area_mm2 == pytest.approx(cell.paper_area_mm2, rel=0.05)

    def test_render_contains_sram_note(self):
        text = render_table1()
        assert "SRAM overhead" in text
        assert "Table 1" in text


class TestSensitivityDriver:
    def test_pipeline_sweep_point_fields(self):
        points = sweep_pipelines(SMALL_SWEEP, values=(1, 4))
        assert [p.value for p in points] == [1, 4]
        assert points[0].mp5_throughput >= points[1].mp5_throughput

    def test_packet_size_sweep_reaches_line_rate(self):
        points = sweep_packet_size(SMALL_SWEEP, values=(64, 256))
        assert points[1].mp5_throughput > 0.98

    def test_render_sweep(self):
        points = sweep_pipelines(SMALL_SWEEP, values=(1, 2))
        text = render_sweep(points, "7a")
        assert "Figure 7a" in text
        assert "ideal" in text


class TestMicrobenchDriver:
    def test_d2_ratios_at_least_near_one(self):
        results = run_d2(SMALL_MICRO)
        assert {r.pattern for r in results} == {"skewed", "uniform"}
        for result in results:
            assert result.min_ratio > 0.8

    def test_d4_zero_with_phantoms(self):
        result = run_d4(SMALL_MICRO)
        assert all(v == 0.0 for v in result.with_d4)
        assert all(v > 0.0 for v in result.without_d4)
        assert all(v > 0.0 for v in result.recirculation)

    def test_d3_ordering(self):
        result = run_d3(SMALL_MICRO)
        for mp5, recirc in zip(result.mp5, result.recirculation):
            assert recirc < mp5
        assert all(r > 1.0 for r in result.avg_recirculations)

    @pytest.mark.parametrize("driver", [run_d2, run_d3, run_d4])
    def test_same_results_on_any_engine_and_job_count(self, driver):
        # Two seeds, so every driver's grid has more than one task and
        # jobs=2 really runs in worker processes.
        settings = replace(SMALL_MICRO, seeds=(0, 1))
        serial = driver(replace(settings, engine="fast"), jobs=1)
        parallel = driver(replace(settings, engine="vector"), jobs=2)
        assert parallel == serial

    def test_render_microbench(self):
        text = render_microbench(
            run_d2(SMALL_MICRO), run_d4(SMALL_MICRO), run_d3(SMALL_MICRO)
        )
        assert "D2" in text and "D4" in text and "D3" in text


class TestRealAppsDriver:
    def test_single_app_sweep(self):
        points = run_application(
            FLOWLET,
            pipeline_counts=(1, 2),
            settings=RealAppSettings(num_packets=800, seeds=(0,)),
        )
        assert all(p.throughput > 0.95 for p in points)
        assert all(p.max_queue_depth <= 16 for p in points)

    def test_render_figure8(self):
        points = run_application(
            FLOWLET,
            pipeline_counts=(1,),
            settings=RealAppSettings(num_packets=400, seeds=(0,)),
        )
        text = render_figure8({"flowlet": points})
        assert "Figure 8a" in text


class TestReport:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [(1, 2.5), (10, 3.25)], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "2.500" in text

    def test_format_table_no_title(self):
        text = format_table(["x"], [(1,)])
        assert text.splitlines()[0].strip() == "x"
