"""Process-parallel execution of independent simulation tasks.

Every harness sweep (Figure 7, Figure 8, ``run_all``) is a list of
fully independent simulations: one (parameter value, seed) pair per
task, with no shared mutable state. :func:`parallel_map` fans such a
task list out over a :class:`~concurrent.futures.ProcessPoolExecutor`
and returns results **in task order**, so callers aggregate exactly as
the serial loop would and the rendered artifacts (``results.json``
included) are byte-identical at any job count.

Determinism contract for task functions:

* the task tuple carries everything that varies — in particular the RNG
  seed — so a task's result depends only on its arguments, never on
  which worker ran it or in what order;
* task functions and their arguments must be picklable (module-level
  functions, plain data).

``jobs`` semantics, shared by every harness entry point:

* ``None`` or ``1`` — serial, in-process (the default; zero overhead,
  bit-for-bit the historical behavior);
* ``0`` — one worker per CPU (:func:`default_jobs`);
* ``n > 1`` — ``n`` worker processes.

If a pool cannot be created or breaks mid-run (sandboxed environments
forbidding ``fork``, worker OOM-kills), the sweep transparently falls
back to the serial path rather than failing the reproduction run. A
pool that never managed to run anything marks the environment as
pool-hostile, so a multi-sweep reproduction pays the doomed spawn
attempt once, not once per figure panel; a pool that breaks after
having delivered results is assumed transient and re-created for the
next sweep (``shutdown_pool`` resets both states).
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class _PoolState:
    """The cached executor plus the worker count it was built with."""

    __slots__ = ("pool", "jobs", "proven")

    def __init__(self, pool: ProcessPoolExecutor, jobs: int):
        self.pool = pool
        self.jobs = jobs
        # True once this pool has completed a map: a failure on a proven
        # pool is transient (worker OOM-kill) and worth retrying next
        # sweep; a failure before any success means the environment
        # cannot spawn workers at all.
        self.proven = False


# One lazily-created pool per process, reused across sweeps so workers
# pay the interpreter + import startup cost once per reproduction run,
# not once per figure panel.
_pool: Optional[_PoolState] = None
# Memoized "this environment cannot run a pool": later sweep families
# skip straight to the serial path. Cleared by shutdown_pool().
_pool_unavailable: bool = False


def default_jobs() -> int:
    """Worker count used for ``jobs=0``: one per available CPU."""
    return os.cpu_count() or 1


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize a ``jobs`` argument to an effective worker count."""
    if jobs is None:
        return 1
    if jobs == 0:
        return default_jobs()
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return jobs


def _get_pool(jobs: int) -> _PoolState:
    global _pool
    if _pool is not None and _pool.jobs != jobs:
        _pool.pool.shutdown(wait=False)
        _pool = None
    if _pool is None:
        _pool = _PoolState(ProcessPoolExecutor(max_workers=jobs), jobs)
    return _pool


def shutdown_pool() -> None:
    """Tear down the cached worker pool (idempotent; re-created lazily).

    Also clears the memoized pool-unavailable verdict, so a caller that
    knows the environment changed can force a fresh spawn attempt.
    """
    global _pool, _pool_unavailable
    if _pool is not None:
        _pool.pool.shutdown(wait=True)
        _pool = None
    _pool_unavailable = False


def _discard_pool() -> None:
    """Drop a broken pool without waiting on its (dead) workers.

    A pool that broke before ever finishing a map means the environment
    cannot spawn workers (sandbox forbidding ``fork``); memoize that so
    subsequent sweep families go straight to the serial path instead of
    repeating the doomed spawn attempt once per family.
    """
    global _pool, _pool_unavailable
    state, _pool = _pool, None
    if state is None:
        # The executor constructor itself raised: the pool never even
        # entered the cache, the strongest possible "cannot spawn".
        _pool_unavailable = True
        return
    if not state.proven:
        _pool_unavailable = True
    state.pool.shutdown(wait=False)


atexit.register(shutdown_pool)


def parallel_map(
    fn: Callable[[T], R],
    tasks: Sequence[T],
    jobs: Optional[int] = None,
) -> List[R]:
    """Apply ``fn`` to every task, returning results in task order.

    Runs serially for ``jobs`` in (None, 1) or when there is at most one
    task; otherwise distributes over the cached process pool (changing
    ``jobs`` recreates it). Any pool failure (creation or mid-run) falls
    back to recomputing the whole task list serially — correct because
    tasks are pure functions of their arguments.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(tasks) <= 1 or _pool_unavailable:
        return [fn(task) for task in tasks]
    # Chunk so each worker round-trip amortizes pickling over several
    # tasks; cap at 4 waves per worker to keep the tail balanced.
    chunksize = max(1, len(tasks) // (jobs * 4))
    try:
        state = _get_pool(jobs)
        results = list(state.pool.map(fn, tasks, chunksize=chunksize))
        state.proven = True
        return results
    except (BrokenProcessPool, OSError, PermissionError, RuntimeError):
        _discard_pool()
        return [fn(task) for task in tasks]
