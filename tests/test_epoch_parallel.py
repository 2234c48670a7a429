"""Phase B must be invisible in results, at any chunk size.

Phase A (:class:`repro.mp5.epochs.EpochStreamer`) fixes the run's task
DAG independently of any stateful service, so the DAG — and every
downstream artifact — is a function of the input alone. These tests pin
that contract: schedule determinism, stats/registers byte-identical to
the fast engine's on chunks of thousands of rows, and the deduplicated
fallback warning.

The default ``remap_period=100`` at k=4 only ever produces epoch chunks
of a few hundred rows, so the identity tests also run at ``POOL_CONFIG``
(no remap: the whole run is one chunk per plan) and
``LONG_EPOCH_CONFIG``, where one chunk revisits every register index
many times — deep wave decompositions, long fused-kernel calls.

There is no intra-run worker pool (docs/simulator.md says why), so the
last section pins that its knob fails loudly instead of being ignored
(``tests/test_native_kernels.py`` does the same for the executor flag).
"""

import numpy as np
import pytest

from repro.cli import main
from repro.harness.runall import SCALES
from repro.mp5 import MP5Config, VectorSwitch, run_mp5
from repro.service import SwitchService
from repro.mp5.vector import _warn_fallback, reset_fallback_warnings
from repro.obs import PhaseProfiler
from repro.workloads.synthetic import make_sensitivity_program, sensitivity_trace


@pytest.fixture(autouse=True)
def _teardown():
    reset_fallback_warnings()
    yield
    reset_fallback_warnings()


#: One 12k-row chunk per plan: with remapping off the sweep emits a
#: single step at the drain.
POOL_CONFIG = MP5Config(remap_algorithm="none")
#: Remapping on: two ~5.6k-row chunks, then a short tail chunk.
LONG_EPOCH_CONFIG = MP5Config(remap_period=1500)
POOL_PACKETS = 12000


def _run_switch(num_packets=3000, seed=0, config=None):
    program = make_sensitivity_program(2, 64)
    switch = VectorSwitch(program, config)
    switch.attach_observability(profiler=PhaseProfiler())
    stats = switch.run(sensitivity_trace(num_packets, 4, 2, 64, seed=seed))
    return switch, stats


# ---------------------------------------------------------------------------
# Schedule determinism
# ---------------------------------------------------------------------------


def test_dag_signature_deterministic_across_runs():
    a, _ = _run_switch()
    b, _ = _run_switch()
    assert a._last_schedule.dag_signature() == b._last_schedule.dag_signature()


def test_dag_signature_varies_with_input():
    a, _ = _run_switch(seed=0)
    b, _ = _run_switch(seed=1)
    assert a._last_schedule.dag_signature() != b._last_schedule.dag_signature()


# ---------------------------------------------------------------------------
# End-to-end byte identity
# ---------------------------------------------------------------------------


def test_stats_identical_across_workers_and_tiers():
    for config in (POOL_CONFIG, LONG_EPOCH_CONFIG):
        _check_workers_and_tiers(config)


def _check_workers_and_tiers(config):
    base_switch, base_stats = _run_switch(POOL_PACKETS, config=config)
    base_regs = dict(base_switch.registers)
    # The configuration does what it is named for: some plan serviced a
    # chunk far past anything the default remap period produces. An
    # epoch's chunk is the rows popping up to its remap boundary.
    schedule = base_switch._last_schedule
    bounds = [tick for tick, _moved in schedule.remap_records]
    assert any(
        np.bincount(np.searchsorted(bounds, pops[pops >= 0])).max() >= 4096
        for pops in schedule.pop_tick
    )
    scalar_stats, scalar_regs = run_mp5(
        make_sensitivity_program(2, 64),
        sensitivity_trace(POOL_PACKETS, 4, 2, 64, seed=0),
        config,
    )
    assert base_stats == scalar_stats  # wasted_slots included
    assert base_regs == scalar_regs


def test_xlarge_scale_defined():
    knobs = SCALES["xlarge"]
    assert knobs["num_packets"] == 1_000_000
    assert knobs["engine"] == "vector"
    assert knobs["sensitivity_packets"] < knobs["num_packets"]


# ---------------------------------------------------------------------------
# Fallback warning dedup
# ---------------------------------------------------------------------------


def test_warn_fallback_prints_once(capsys):
    _warn_fallback("test reason")
    _warn_fallback("test reason")
    assert capsys.readouterr().err == (
        "vector engine: test reason; falling back to the fast engine\n"
    )
    _warn_fallback("another reason")
    err = capsys.readouterr().err
    assert "another reason" in err and "test reason" not in err


def test_warn_fallback_reset(capsys):
    _warn_fallback("resettable")
    reset_fallback_warnings()
    _warn_fallback("resettable")
    assert capsys.readouterr().err.count("resettable") == 2


def test_cli_invocations_each_warn_once(capsys):
    """main() resets the warning budget, so two CLI runs in one process
    warn once each — not once total, not twice per run. Observability
    no longer falls back, so the faulted run is the warning path."""
    argv = [
        "run", "heavy_hitter", "--packets", "200",
        "--engine", "vector", "--faults", "examples/faults/slowdown.json",
    ]
    for _ in range(2):
        assert main(argv) == 0
        err = capsys.readouterr().err
        assert err.count("falling back to the fast engine") == 1


# ---------------------------------------------------------------------------
# The removed knob fails loudly
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    (
        ["run", "heavy_hitter"],
        ["fig7", "a"],
        ["fig8"],
        ["reproduce"],
        ["serve", "heavy_hitter"],
    ),
    ids=lambda argv: argv[0],
)
def test_cli_rejects_epoch_jobs(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--epoch-jobs", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --epoch-jobs 2" in capsys.readouterr().err


def test_api_rejects_epoch_jobs():
    program = make_sensitivity_program(2, 64)
    for call in (
        lambda **kw: VectorSwitch(program, **kw),
        lambda **kw: run_mp5(program, [], **kw),
        lambda **kw: SwitchService(engine="vector", **kw),
    ):
        call()  # the same call is fine without the keyword
        with pytest.raises(TypeError, match="epoch_jobs"):
            call(epoch_jobs=2)
