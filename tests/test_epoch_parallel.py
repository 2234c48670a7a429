"""Epoch/residue-class parallel execution must be invisible in results.

Phase A (:class:`repro.mp5.epochs.EpochStreamer`) fixes the run's task
DAG independently of any stateful service, so the DAG — and every
downstream artifact — must be identical at any worker count and on any
kernel tier. These tests pin that contract: schedule determinism,
residue-partition disjointness/coverage, byte-identical ``results.json``
across ``epoch_jobs`` and ``native`` settings, graceful re-execution
when the worker pool breaks mid-chunk, and the deduplicated fallback
warning.

The pool only dispatches an epoch chunk of at least
``PARALLEL_MIN_ROWS`` rows; the default ``remap_period=100`` at k=4
never produces one, so the worker tests run at ``POOL_CONFIG`` (no
remap: the whole run is one chunk) and ``LONG_EPOCH_CONFIG`` and assert
that a dispatch actually happened.
"""

import numpy as np
import pytest

import repro.harness.parallel as par
from repro.cli import main
from repro.harness.parallel import shutdown_pool
from repro.harness.runall import SCALES, run_all
from repro.mp5 import MP5Config, VectorSwitch, run_mp5
from repro.mp5.epochs import PARALLEL_MIN_ROWS, _residue_parts
from repro.mp5.vector import _warn_fallback, reset_fallback_warnings
from repro.obs import PhaseProfiler
from repro.workloads import clone_packets
from repro.workloads.synthetic import make_sensitivity_program, sensitivity_trace


@pytest.fixture(autouse=True)
def _teardown():
    reset_fallback_warnings()
    yield
    reset_fallback_warnings()
    shutdown_pool()


#: One 12k-row chunk per plan: with remapping off the sweep emits a
#: single step at the drain.
POOL_CONFIG = MP5Config(remap_algorithm="none")
#: Remapping on: two ~5.6k-row chunks through the pool, then a short
#: tail chunk in process against the registers the workers left.
LONG_EPOCH_CONFIG = MP5Config(remap_period=1500)
POOL_PACKETS = 12000


def _run_switch(
    num_packets=3000, seed=0, native=None, epoch_jobs=None, config=None
):
    program = make_sensitivity_program(2, 64)
    switch = VectorSwitch(
        program, config, native=native, epoch_jobs=epoch_jobs
    )
    switch.attach_observability(profiler=PhaseProfiler())
    stats = switch.run(sensitivity_trace(num_packets, 4, 2, 64, seed=seed))
    return switch, stats


def _pool_tasks(switch) -> int:
    return switch._profiler.pool.get("tasks", 0)


def _ran_on_pool(switch) -> bool:
    """Every wave stage's last chunk completed on workers."""
    tiers = {k["tier"] for k in switch._profiler.kernels.values()}
    return _pool_tasks(switch) > 0 and tiers == {"pool"}


# ---------------------------------------------------------------------------
# Schedule determinism
# ---------------------------------------------------------------------------


def test_dag_signature_deterministic_across_runs():
    a, _ = _run_switch()
    b, _ = _run_switch()
    assert a._last_schedule.dag_signature() == b._last_schedule.dag_signature()


@pytest.mark.parametrize("epoch_jobs", (None, 1, 2, 4))
def test_dag_signature_independent_of_workers(epoch_jobs):
    base, _ = _run_switch(POOL_PACKETS, config=POOL_CONFIG)
    other, _ = _run_switch(
        POOL_PACKETS, config=POOL_CONFIG, epoch_jobs=epoch_jobs
    )
    assert _ran_on_pool(other) == (epoch_jobs in (2, 4))
    assert (
        other._last_schedule.dag_signature()
        == base._last_schedule.dag_signature()
    )


def test_dag_signature_independent_of_native_tier():
    base, _ = _run_switch()
    native, _ = _run_switch(native=True)
    assert (
        native._last_schedule.dag_signature()
        == base._last_schedule.dag_signature()
    )


def test_dag_signature_varies_with_input():
    a, _ = _run_switch(seed=0)
    b, _ = _run_switch(seed=1)
    assert a._last_schedule.dag_signature() != b._last_schedule.dag_signature()


# ---------------------------------------------------------------------------
# Residue partition
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nparts", (2, 3, 4))
def test_partition_covers_stream_disjointly(nparts):
    """The split the pool dispatches: every chunk row in exactly one
    part, one residue class of ``acc_idx % nparts`` per part."""
    switch, _ = _run_switch(
        POOL_PACKETS, config=LONG_EPOCH_CONFIG, epoch_jobs=nparts
    )
    assert _pool_tasks(switch) > 0
    sched = switch._last_schedule
    checked = 0
    for pi, idx_col in enumerate(sched.acc_idx):
        for rows, _pops in sched.chunks[pi]:
            if rows.shape[0] < PARALLEL_MIN_ROWS:
                continue  # below the gate: never offered to the pool
            idxs = idx_col[rows]
            parts = _residue_parts(idxs, nparts)
            seen = np.concatenate(parts)
            assert sorted(seen.tolist()) == list(range(rows.shape[0]))
            for pos in parts:
                assert len(set((idxs[pos] % nparts).tolist())) == 1
                assert np.all(np.diff(pos) > 0)  # chunk (pop) order kept
            checked += 1
    assert checked  # the dispatched chunks
    # Declined splits: a single non-empty residue class has nothing to
    # run side by side; a part under 64 rows is dwarfed by its round-trip.
    one_class = np.arange(1000, dtype=np.int64) * nparts
    assert _residue_parts(one_class, nparts) is None
    lopsided = np.concatenate([one_class, np.ones(63, dtype=np.int64)])
    assert _residue_parts(lopsided, nparts) is None


# ---------------------------------------------------------------------------
# End-to-end byte identity
# ---------------------------------------------------------------------------


def test_stats_identical_across_workers_and_tiers():
    for config in (POOL_CONFIG, LONG_EPOCH_CONFIG):
        _check_workers_and_tiers(config)


def _check_workers_and_tiers(config):
    base_switch, base_stats = _run_switch(POOL_PACKETS, config=config)
    base_regs = dict(base_switch.registers)
    assert _pool_tasks(base_switch) == 0
    scalar_stats, scalar_regs = run_mp5(
        make_sensitivity_program(2, 64),
        sensitivity_trace(POOL_PACKETS, 4, 2, 64, seed=0),
        config,
    )
    assert base_stats == scalar_stats
    assert base_regs == scalar_regs
    for kwargs in (
        dict(native=True),
        dict(epoch_jobs=2),
        dict(native=True, epoch_jobs=2),
        dict(epoch_jobs=4),
    ):
        switch, stats = _run_switch(POOL_PACKETS, config=config, **kwargs)
        assert (_pool_tasks(switch) > 0) == ("epoch_jobs" in kwargs), kwargs
        assert stats == base_stats, kwargs  # wasted_slots included
        assert dict(switch.registers) == base_regs, kwargs


def test_runall_results_identical_across_epoch_settings(tmp_path):
    paths = {}
    for name, kwargs in (
        ("base", dict()),
        ("native", dict(native=True)),
        ("jobs2", dict(epoch_jobs=2)),
        ("native_jobs2", dict(native=True, epoch_jobs=2)),
    ):
        out = tmp_path / name
        run_all(out_dir=str(out), scale="tiny", engine="vector", **kwargs)
        paths[name] = (out / "results.json").read_bytes()
    assert len(set(paths.values())) == 1


def test_xlarge_scale_defined():
    knobs = SCALES["xlarge"]
    assert knobs["num_packets"] == 1_000_000
    assert knobs["engine"] == "vector"
    assert knobs["native"] is True
    assert knobs["sensitivity_packets"] < knobs["num_packets"]


# ---------------------------------------------------------------------------
# Pool failure rollback
# ---------------------------------------------------------------------------


def test_pool_breakage_rolls_back_and_reexecutes(monkeypatch):
    """A mid-chunk pool failure must not double-apply register updates:
    workers only ever touch the shared copy, so the caller's columns
    are intact and the chunk re-executes in process."""
    base_switch, base_stats = _run_switch(POOL_PACKETS, config=POOL_CONFIG)
    calls = []

    def boom(fn, tasks, **kwargs):
        calls.append(len(tasks))
        raise par.PoolBroken("worker died")

    monkeypatch.setattr(par, "pool_map_strict", boom)
    switch, stats = _run_switch(
        POOL_PACKETS, config=POOL_CONFIG, epoch_jobs=2
    )
    assert calls  # the dispatch was attempted, then abandoned
    assert not _ran_on_pool(switch)
    assert stats == base_stats
    assert dict(switch.registers) == dict(base_switch.registers)
    for name, col in base_switch._H.items():
        assert np.array_equal(switch._H[name], col), name
    for name, col in base_switch._E.items():
        assert np.array_equal(switch._E[name], col), name


# ---------------------------------------------------------------------------
# Fallback warning dedup
# ---------------------------------------------------------------------------


def test_warn_fallback_prints_once(capsys):
    _warn_fallback("vector engine: test message")
    _warn_fallback("vector engine: test message")
    assert capsys.readouterr().err.count("test message") == 1
    _warn_fallback("vector engine: another message")
    err = capsys.readouterr().err
    assert "another message" in err and "test message" not in err


def test_warn_fallback_reset(capsys):
    _warn_fallback("vector engine: resettable")
    reset_fallback_warnings()
    _warn_fallback("vector engine: resettable")
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
