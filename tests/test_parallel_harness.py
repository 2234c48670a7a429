"""The parallel sweep harness must be invisible in the results: any job
count produces exactly the serial output, in the same order."""

import pytest

import repro.harness.parallel as par
from repro.harness.parallel import (
    default_jobs,
    parallel_map,
    resolve_jobs,
    shutdown_pool,
)
from repro.harness.realapps import RealAppSettings, run_figure8
from repro.harness.sensitivity import SweepSettings, sweep_pipelines


def _default_pool():
    """The cached pool executor (None when absent)."""
    state = par._pool
    return None if state is None else state.pool


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(x)


@pytest.fixture(autouse=True)
def _teardown_pool():
    yield
    shutdown_pool()


def test_parallel_map_preserves_task_order():
    tasks = list(range(23))
    assert parallel_map(_square, tasks, jobs=3) == [x * x for x in tasks]


def test_parallel_map_serial_modes():
    assert parallel_map(_square, [1, 2, 3], jobs=None) == [1, 4, 9]
    assert parallel_map(_square, [1, 2, 3], jobs=1) == [1, 4, 9]
    assert parallel_map(_square, [7], jobs=8) == [49]  # single task: serial
    assert parallel_map(_square, [], jobs=8) == []


def test_resolve_jobs():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(5) == 5
    assert resolve_jobs(0) == default_jobs() >= 1
    with pytest.raises(ValueError):
        resolve_jobs(-2)


def test_worker_exception_propagates():
    with pytest.raises(ValueError):
        parallel_map(_boom, [1, 2, 3, 4], jobs=2)


def test_sweep_results_independent_of_jobs():
    settings = SweepSettings(num_packets=200, seeds=(0, 1))
    serial = sweep_pipelines(settings, values=(1, 2), jobs=1)
    parallel = sweep_pipelines(settings, values=(1, 2), jobs=2)
    assert serial == parallel


def test_figure8_results_independent_of_jobs():
    settings = RealAppSettings(num_packets=150, seeds=(0,))
    serial = run_figure8(pipeline_counts=(1, 2), settings=settings, jobs=1)
    parallel = run_figure8(pipeline_counts=(1, 2), settings=settings, jobs=2)
    assert serial == parallel


def test_pool_reused_across_sweep_families():
    """One reproduction run spans several sweep families; all of them
    must share a single worker pool (workers pay import cost once)."""
    sweep_settings = SweepSettings(num_packets=150, seeds=(0,))
    first = sweep_pipelines(sweep_settings, values=(1, 2), jobs=2)
    pool_after_fig7 = _default_pool()
    app_settings = RealAppSettings(num_packets=150, seeds=(0,))
    second = run_figure8(
        pipeline_counts=(1, 2), settings=app_settings, jobs=2
    )
    assert pool_after_fig7 is not None
    assert _default_pool() is pool_after_fig7
    # ...and sharing the pool is invisible in the results.
    assert first == sweep_pipelines(sweep_settings, values=(1, 2), jobs=1)
    assert second == run_figure8(
        pipeline_counts=(1, 2), settings=app_settings, jobs=1
    )


def test_pool_recreated_when_jobs_change():
    assert parallel_map(_square, list(range(6)), jobs=2) == [
        x * x for x in range(6)
    ]
    pool2 = _default_pool()
    assert parallel_map(_square, list(range(6)), jobs=3) == [
        x * x for x in range(6)
    ]
    assert _default_pool() is not pool2


def test_unproven_pool_failure_memoized(monkeypatch):
    """An environment where workers can never spawn pays the doomed
    attempt once; later families go straight to the serial path."""
    shutdown_pool()
    attempts = []

    class Doomed:
        def __init__(self, max_workers, **kwargs):
            attempts.append(max_workers)
            raise OSError("spawn forbidden")

    monkeypatch.setattr(par, "ProcessPoolExecutor", Doomed)
    assert parallel_map(_square, [1, 2, 3], jobs=2) == [1, 4, 9]
    assert parallel_map(_square, [4, 5, 6], jobs=2) == [16, 25, 36]
    assert attempts == [2]  # second family never retried
    assert par._pool_unavailable
    # shutdown_pool clears the verdict for a changed environment.
    shutdown_pool()
    assert not par._pool_unavailable


def test_proven_pool_breakage_not_memoized(monkeypatch):
    """A pool that already delivered results may break transiently
    (worker OOM-kill); the next sweep gets a fresh pool."""
    assert parallel_map(_square, list(range(6)), jobs=2) == [
        x * x for x in range(6)
    ]
    assert par._pool.proven
    broken = _default_pool()

    def explode(*args, **kwargs):
        raise par.BrokenProcessPool("worker died")

    monkeypatch.setattr(broken, "map", explode)
    assert parallel_map(_square, [7, 8], jobs=2) == [49, 64]  # serial fallback
    assert not par._pool_unavailable
    assert parallel_map(_square, [9, 10], jobs=2) == [81, 100]
    assert _default_pool() is not broken
