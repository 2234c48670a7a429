"""The parallel sweep harness must be invisible in the results: any job
count produces exactly the serial output, in the same order. Failures
are loud: nothing is ever recomputed in the parent."""

import os

import pytest

import repro.harness.parallel as par
from repro.apps import FLOWLET
from repro.harness.parallel import (
    default_jobs,
    parallel_map,
    resolve_jobs,
    shutdown_pool,
)
from repro.harness.microbench import MicrobenchSettings, run_d4
from repro.harness.realapps import (
    RealAppSettings,
    run_application,
    run_figure8,
)
from repro.harness.sensitivity import SweepSettings, sweep_pipelines
from repro.mp5.vector import reset_fallback_warnings


def _default_pool():
    """The cached pool executor (None when absent)."""
    return par._pool


def _square(x):
    return x * x


def _boom(x):
    raise ValueError(x)


def _pid_boom(x):
    raise RuntimeError(os.getpid())


def _pid(x):
    return os.getpid()


def _die(x):
    os._exit(1)


# Appended to only by tasks that run in this (the parent) process.
_RAN_IN_PARENT = []


def _recorded_square(x):
    _RAN_IN_PARENT.append(x)
    return x * x


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


def test_task_error_propagates_from_worker_and_pool_stays():
    """A task raising RuntimeError under jobs=2 surfaces the error the
    worker raised; the pool is kept, and the next call runs in workers,
    not serially in the parent."""
    with pytest.raises(RuntimeError) as err:
        parallel_map(_pid_boom, [1, 2, 3, 4], jobs=2)
    assert err.value.args[0] != os.getpid()
    pool = _default_pool()
    assert pool is not None
    pids = parallel_map(_pid, [1, 2, 3, 4], jobs=2)
    assert os.getpid() not in pids
    assert _default_pool() is pool


def test_spawn_failure_propagates_and_is_not_memoized(monkeypatch):
    """A pool that cannot spawn workers stops the sweep with its error;
    no task runs in the parent, and the next call tries a fresh pool."""
    _RAN_IN_PARENT.clear()
    built = []

    class Doomed:
        def __init__(self, max_workers):
            built.append(max_workers)

        def map(self, fn, tasks, chunksize=1):
            raise OSError("spawn forbidden")

        def shutdown(self, wait=True, cancel_futures=False):
            pass

    monkeypatch.setattr(par, "ProcessPoolExecutor", Doomed)
    with pytest.raises(OSError, match="spawn forbidden"):
        parallel_map(_recorded_square, [1, 2, 3], jobs=2)
    assert _default_pool() is None
    with pytest.raises(OSError, match="spawn forbidden"):
        parallel_map(_recorded_square, [4, 5, 6], jobs=2)
    assert built == [2, 2]  # retried, not memoized
    assert _RAN_IN_PARENT == []
    monkeypatch.undo()
    assert parallel_map(_recorded_square, [7, 8], jobs=2) == [49, 64]
    assert _RAN_IN_PARENT == []


def test_broken_pool_propagates_and_is_replaced(monkeypatch):
    """A pool whose map raises BrokenProcessPool (a worker died)
    propagates the error, runs no task in the parent, and is replaced
    by a fresh pool on the next call."""
    _RAN_IN_PARENT.clear()
    assert parallel_map(_square, list(range(6)), jobs=2) == [
        x * x for x in range(6)
    ]
    broken = _default_pool()

    def explode(*args, **kwargs):
        raise par.BrokenProcessPool("worker died")

    monkeypatch.setattr(broken, "map", explode)
    with pytest.raises(par.BrokenProcessPool, match="worker died"):
        parallel_map(_recorded_square, [7, 8], jobs=2)
    assert _RAN_IN_PARENT == []
    assert _default_pool() is None
    assert parallel_map(_recorded_square, [9, 10], jobs=2) == [81, 100]
    assert _RAN_IN_PARENT == []
    assert _default_pool() is not broken


def test_worker_death_propagates_and_pool_is_replaced():
    """A worker that dies mid-sweep breaks the pool: the sweep stops
    with BrokenProcessPool and the next call runs in a fresh pool."""
    assert parallel_map(_square, [1, 2], jobs=2) == [1, 4]
    dead = _default_pool()
    with pytest.raises(par.BrokenProcessPool):
        parallel_map(_die, [1, 2, 3, 4], jobs=2)
    assert _default_pool() is None
    assert os.getpid() not in parallel_map(_pid, [1, 2], jobs=2)
    assert _default_pool() is not dead


def test_run_application_independent_of_jobs():
    settings = RealAppSettings(num_packets=150, seeds=(0, 1))
    serial = run_application(FLOWLET, (1, 2), settings, jobs=1)
    assert run_application(FLOWLET, (1, 2), settings, jobs=2) == serial


@pytest.mark.parametrize("jobs", [1, 2])
def test_fallback_notice_prints_once_at_any_jobs(capfd, jobs):
    """D4's access-order rows fall back to the fast engine in every
    task; the notice prints once per warning scope whether the tasks
    run in the parent or in workers (which hand it back with their
    results)."""
    settings = MicrobenchSettings(num_packets=300, seeds=(0, 1), engine="vector")
    reset_fallback_warnings()
    capfd.readouterr()
    run_d4(settings, jobs=jobs)
    run_d4(settings, jobs=jobs)
    err = capfd.readouterr().err
    line = "vector engine: record_access_order; falling back to the fast engine"
    assert err.splitlines().count(line) == 1
    reset_fallback_warnings()
    run_d4(settings, jobs=jobs)
    assert capfd.readouterr().err.splitlines().count(line) == 1
