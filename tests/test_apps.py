"""Tests for the application catalog (§4.4)."""

import pytest

from repro.apps import (
    ALL_APPS,
    CONGA,
    FIGURE8_APPS,
    FLOWLET,
    SEQUENCER,
    WFQ,
    get_application,
)
from repro.mp5 import MP5Config, MP5Switch


class TestCatalog:
    def test_figure8_apps_in_order(self):
        assert [a.name for a in FIGURE8_APPS] == [
            "flowlet",
            "conga",
            "wfq",
            "sequencer",
        ]

    def test_get_application(self):
        assert get_application("flowlet") is FLOWLET

    def test_unknown_application(self):
        with pytest.raises(KeyError, match="available"):
            get_application("nope")

    @pytest.mark.parametrize("app", list(ALL_APPS.values()), ids=lambda a: a.name)
    def test_every_app_compiles(self, app):
        compiled = app.compile()
        assert compiled.stage_count <= compiled.target.num_stages

    @pytest.mark.parametrize("app", FIGURE8_APPS, ids=lambda a: a.name)
    def test_workload_provides_required_fields(self, app):
        program = app.compile()
        packets = app.workload(50, 2, seed=0)
        for pkt in packets:
            for field in program.packet_fields:
                assert field in pkt.headers, (app.name, field)

    def test_workload_deterministic(self):
        a = FLOWLET.workload(30, 2, seed=9)
        b = FLOWLET.workload(30, 2, seed=9)
        assert [p.headers for p in a] == [p.headers for p in b]

    def test_workload_sizes_bimodal_bounded(self):
        packets = CONGA.workload(100, 2, seed=0)
        assert all(64 <= p.size_bytes <= 1400 for p in packets)


class TestAppExecution:
    @pytest.mark.parametrize("app", FIGURE8_APPS, ids=lambda a: a.name)
    def test_runs_at_line_rate_on_four_pipelines(self, app):
        program = app.compile()
        trace = app.workload(1500, 4, seed=1)
        switch = MP5Switch(program, MP5Config(num_pipelines=4))
        stats = switch.run(trace)
        assert stats.throughput_normalized() > 0.97, app.name
        assert stats.dropped == 0

    def test_wfq_start_times_monotone_per_flow(self):
        program = WFQ.compile()
        packets = WFQ.workload(800, 2, seed=2)
        switch = MP5Switch(program, MP5Config(num_pipelines=2))
        switch.run(packets, record_access_order=True)
        by_flow = {}
        for pkt in switch.packets:
            if pkt.egress_tick is None:
                continue
            by_flow.setdefault(pkt.flow_id, []).append(pkt)
        for flow_packets in by_flow.values():
            flow_packets.sort(key=lambda p: p.pkt_id)
            starts = [p.headers["start"] for p in flow_packets]
            assert starts == sorted(starts)

    def test_sequencer_unique_stamps(self):
        program = SEQUENCER.compile()
        packets = SEQUENCER.workload(600, 4, seed=3)
        switch = MP5Switch(program, MP5Config(num_pipelines=4))
        switch.run(packets, record_access_order=True)
        stamps = [
            p.headers["seq"] for p in switch.packets if p.egress_tick is not None
        ]
        assert len(stamps) == len(set(stamps))
        assert sorted(stamps) == list(range(1, len(stamps) + 1))
