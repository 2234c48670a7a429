"""Fault injection and graceful degradation (:mod:`repro.faults`).

Three contract layers:

* **schedule layer** — validation, JSON round-trips, deterministic
  generation;
* **differential layer** — under every shipped schedule the fast and
  dense engines produce identical stats, registers, and canonical event
  streams, and the degraded contract (survivor C1 + drop accounting)
  holds;
* **determinism layer** — same schedule + seed gives byte-identical
  results across repeated runs and across serial vs parallel chaos
  sweeps.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.equivalence import check_degraded
from repro.errors import ConfigError
from repro.faults import (
    DegradationPolicy,
    FAULT_KINDS,
    FaultEvent,
    FaultSchedule,
    generate_schedule,
)
from repro.harness import ChaosSettings, run_chaos_sweep, schedule_for
from repro.mp5 import MP5Config, MP5Switch, run_mp5, run_mp5_reference
from repro.obs import TraceRecorder, canonical_form
from repro.workloads.synthetic import make_sensitivity_program, sensitivity_trace

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples" / "faults").glob(
        "*.json"
    )
)


def _program():
    return make_sensitivity_program(
        num_stateful=3, register_size=16, num_stages=6
    )


def _config():
    return MP5Config(num_pipelines=4, fifo_capacity=8, remap_period=50)


def _trace(seed=11):
    return sensitivity_trace(300, 4, 3, 16, pattern="skewed", seed=seed)


def _run_engines(schedule):
    """Run both engines under ``schedule``; returns per-engine
    (stats, registers, canonical events)."""
    out = []
    for runner in (run_mp5, run_mp5_reference):
        recorder = TraceRecorder()
        stats, regs = runner(
            _program(),
            _trace(),
            _config(),
            max_ticks=5000,
            record_access_order=True,
            recorder=recorder,
            faults=schedule,
        )
        out.append((stats, regs, canonical_form(recorder.events)))
    return out


# ---------------------------------------------------------------------------
# Schedule layer
# ---------------------------------------------------------------------------


class TestSchedule:
    def test_round_trip(self, tmp_path):
        schedule = FaultSchedule(
            faults=[
                FaultEvent("pipeline_stall", start=5, duration=10, pipeline=0),
                FaultEvent(
                    "phantom_channel", start=1, duration=9, loss_rate=0.5
                ),
            ],
            degradation=DegradationPolicy(drain_ticks=2),
            seed=7,
        )
        path = tmp_path / "sched.json"
        schedule.save(path)
        assert FaultSchedule.load(path) == schedule

    def test_rejects_unknown_kind(self):
        with pytest.raises(ConfigError):
            FaultSchedule(
                faults=[FaultEvent("meteor_strike", start=0, duration=1)]
            )

    def test_rejects_stall_without_pipeline(self):
        with pytest.raises(ConfigError):
            FaultSchedule(
                faults=[FaultEvent("pipeline_stall", start=0, duration=1)]
            )

    def test_rejects_out_of_range_pipeline(self):
        schedule = FaultSchedule(
            faults=[
                FaultEvent("crossbar_fail", start=0, duration=5, pipeline=9)
            ]
        )
        with pytest.raises(ConfigError):
            schedule.validate(num_pipelines=4)

    def test_rejects_unknown_json_fields(self):
        with pytest.raises(ConfigError):
            FaultEvent.from_dict(
                {"kind": "fifo_shrink", "start": 0, "duration": 1, "bogus": 2}
            )

    def test_rejects_bad_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ConfigError):
            FaultSchedule.load(path)

    def test_generate_is_seed_deterministic(self):
        a = generate_schedule(seed=3, events=5)
        b = generate_schedule(seed=3, events=5)
        c = generate_schedule(seed=4, events=5)
        assert a == b
        assert a != c
        a.validate(num_pipelines=4)

    def test_empty_schedule_is_not_attached(self):
        switch = MP5Switch(_program(), _config())
        switch.attach_faults(FaultSchedule(faults=[]))
        assert switch._faults is None

    def test_attach_after_run_rejected(self):
        switch = MP5Switch(_program(), _config())
        switch.run(_trace())
        with pytest.raises(ConfigError):
            switch.attach_faults(
                FaultSchedule(
                    faults=[
                        FaultEvent(
                            "fifo_shrink", start=0, duration=1, capacity=1
                        )
                    ]
                )
            )


# ---------------------------------------------------------------------------
# Differential layer: both engines agree under every shipped schedule
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", EXAMPLES, ids=lambda p: p.stem)
def test_engines_agree_under_faults(spec):
    schedule = FaultSchedule.load(spec)
    (fast, fast_regs, fast_ev), (ref, ref_regs, ref_ev) = _run_engines(
        schedule
    )
    assert fast == ref
    assert fast_regs == ref_regs
    assert fast_ev == ref_ev


@pytest.mark.parametrize("spec", EXAMPLES, ids=lambda p: p.stem)
@pytest.mark.parametrize("engine", ("fast", pytest.param("dense", id="reference")))
def test_degraded_contract_holds(spec, engine):
    schedule = FaultSchedule.load(spec)
    report = check_degraded(
        _program(),
        list(_trace()),
        _config(),
        faults=schedule,
        max_ticks=5000,
        engine=engine,
    )
    assert report.contract_holds, report.summary()
    assert report.offered == 300
    assert report.unaccounted == 0  # every fault window ends; the run drains


def test_example_schedules_cover_all_kinds():
    kinds = set()
    for spec in EXAMPLES:
        kinds.update(f.kind for f in FaultSchedule.load(spec).faults)
    assert kinds == set(FAULT_KINDS)


# ---------------------------------------------------------------------------
# Fault semantics
# ---------------------------------------------------------------------------


def _stats_for(schedule):
    stats, _ = run_mp5(
        _program(), _trace(), _config(), max_ticks=5000, faults=schedule
    )
    return stats


class TestSemantics:
    def test_empty_schedule_identical_to_no_faults(self):
        baseline_rec, faulted_rec = TraceRecorder(), TraceRecorder()
        baseline, _ = run_mp5(
            _program(), _trace(), _config(), recorder=baseline_rec
        )
        faulted, _ = run_mp5(
            _program(),
            _trace(),
            _config(),
            recorder=faulted_rec,
            faults=FaultSchedule(faults=[]),
        )
        assert baseline == faulted
        assert baseline_rec.events == faulted_rec.events

    def test_stall_triggers_emergency_remap_without_drops(self):
        stats = _stats_for(
            FaultSchedule(
                faults=[
                    FaultEvent(
                        "pipeline_stall", start=20, duration=40, pipeline=1
                    )
                ]
            )
        )
        assert stats.emergency_remaps >= 1
        assert stats.emergency_remap_moves > 0
        # A stall delays packets but loses none by itself.
        assert stats.egressed + stats.dropped == stats.offered

    def test_stall_with_degrade_off_skips_remap(self):
        stats = _stats_for(
            FaultSchedule(
                faults=[
                    FaultEvent(
                        "pipeline_stall",
                        start=20,
                        duration=40,
                        pipeline=1,
                        degrade=False,
                    )
                ]
            )
        )
        assert stats.emergency_remaps == 0

    def test_crossbar_failure_drops_with_reason(self):
        stats = _stats_for(
            FaultSchedule(
                faults=[
                    FaultEvent(
                        "crossbar_fail", start=10, duration=60, pipeline=0
                    )
                ]
            )
        )
        assert stats.drops_crossbar > 0
        assert stats.drops_by_reason["crossbar_down"] == stats.drops_crossbar
        assert stats.egressed + stats.dropped == stats.offered

    def test_phantom_loss_exercises_recovery(self):
        stats = _stats_for(
            FaultSchedule(
                faults=[
                    FaultEvent(
                        "phantom_channel", start=5, duration=80, loss_rate=0.4
                    )
                ],
                seed=5,
            )
        )
        assert stats.phantoms_lost > 0
        # A lost phantom strands its data packet at insert: the §3.5.1
        # recovery path drops it with no_phantom rather than deadlocking.
        assert stats.drops_by_reason.get("no_phantom", 0) > 0

    def test_fifo_shrink_causes_drops(self):
        baseline = _stats_for(FaultSchedule(faults=[]))
        shrunk = _stats_for(
            FaultSchedule(
                faults=[
                    FaultEvent("fifo_shrink", start=5, duration=80, capacity=1)
                ]
            )
        )
        assert shrunk.drops_fifo_full > baseline.drops_fifo_full

    def test_slowdown_is_partial_stall(self):
        full = _stats_for(
            FaultSchedule(
                faults=[
                    FaultEvent(
                        "pipeline_stall", start=20, duration=60, pipeline=2
                    )
                ]
            )
        )
        partial = _stats_for(
            FaultSchedule(
                faults=[
                    FaultEvent(
                        "pipeline_stall",
                        start=20,
                        duration=60,
                        pipeline=2,
                        service_rate=0.5,
                    )
                ]
            )
        )
        assert partial.ticks <= full.ticks

    def test_fault_events_emitted(self):
        recorder = TraceRecorder()
        run_mp5(
            _program(),
            _trace(),
            _config(),
            recorder=recorder,
            faults=FaultSchedule(
                faults=[
                    FaultEvent(
                        "pipeline_stall", start=20, duration=30, pipeline=1
                    )
                ]
            ),
        )
        types = [e["type"] for e in recorder.events]
        assert "fault_start" in types
        assert "fault_end" in types
        assert "emergency_remap" in types


# ---------------------------------------------------------------------------
# Determinism layer
# ---------------------------------------------------------------------------


def _canonical_run(schedule) -> str:
    recorder = TraceRecorder()
    stats, regs = run_mp5(
        _program(),
        _trace(),
        _config(),
        max_ticks=5000,
        recorder=recorder,
        faults=schedule,
    )
    return json.dumps(
        {
            "summary": stats.summary(),
            "reasons": stats.drops_by_reason,
            "registers": regs,
            "events": recorder.events,
        },
        sort_keys=True,
    )


def test_same_schedule_and_seed_byte_identical():
    spec = FaultSchedule.load(EXAMPLES[0])
    assert _canonical_run(spec) == _canonical_run(spec)


def test_chaos_sweep_serial_parallel_identical():
    settings = ChaosSettings(
        num_packets=300, seeds=(0,), intensities=(1.0,)
    )
    assert run_chaos_sweep(settings, jobs=1) == run_chaos_sweep(
        settings, jobs=2
    )


def test_chaos_schedules_are_pure():
    settings = ChaosSettings()
    for kind in FAULT_KINDS:
        assert schedule_for(kind, 0.5, settings) == schedule_for(
            kind, 0.5, settings
        )
    assert schedule_for("none", 1.0, settings).empty
    assert schedule_for("pipeline_stall", 0.0, settings).empty


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------


class TestFaultsCli:
    def test_generate_validate_describe(self, tmp_path, capsys):
        out = tmp_path / "sched.json"
        assert (
            main(["faults", "generate", "--seed", "2", "--out", str(out)]) == 0
        )
        assert main(["faults", "validate", str(out)]) == 0
        assert main(["faults", "describe", str(out)]) == 0
        assert "fault(s)" in capsys.readouterr().out

    def test_run_with_faults(self, capsys):
        spec = str(EXAMPLES[0])
        assert (
            main(
                ["run", "heavy_hitter", "--packets", "400", "--faults", spec]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "throughput" in out
        assert "faults:" in out
        assert "drops by reason" in out

    def test_chaos_smoke(self, tmp_path, capsys):
        out = tmp_path / "chaos.json"
        assert (
            main(
                [
                    "chaos",
                    "--packets",
                    "200",
                    "--seeds",
                    "1",
                    "--intensities",
                    "1.0",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert "Chaos sweep" in capsys.readouterr().out
        points = json.loads(out.read_text())
        assert points[0]["kind"] == "none"
        assert len(points) == 1 + len(FAULT_KINDS)
