"""Process-parallel execution of independent simulation tasks.

Every harness sweep (the §4.3.2 microbenchmarks, Figure 7, Figure 8,
the chaos sweep) is a grid of fully independent simulations: one (cell, seed) pair per task, with no
shared mutable state. :func:`map_cells` is the one runner for such a
grid; it flattens it into a task list for :func:`parallel_map`, which
fans the list out over a :class:`~concurrent.futures.ProcessPoolExecutor`
and returns results **in task order**, so callers aggregate exactly as
a serial loop would and the rendered artifacts (``results.json``
included) are byte-identical at any job count.

Determinism contract for task functions:

* the task carries everything that varies — in particular the RNG
  seed — so a task's result depends only on its arguments, never on
  which worker ran it or in what order;
* task functions and their arguments must be picklable (module-level
  functions, plain data) whenever ``jobs > 1``.

``jobs`` semantics, shared by every harness entry point:

* ``None`` or ``1`` — serial, in-process (the default, and the only
  serial path);
* ``0`` — one worker per CPU (:func:`default_jobs`);
* ``n > 1`` — ``n`` worker processes.

Failures are loud. A task's exception reaches the caller as the worker
raised it. A pool failure (workers cannot be spawned, or one dies and
breaks the pool) drops the cached pool, so the next call builds a fresh
one, and propagates. Nothing is ever recomputed in the parent.

Notices are the parent's: a worker collects the vector engine's
fallback notices its task raises and returns them with the result, and
the parent prints each once per warning scope, as a serial run does.
"""

from __future__ import annotations

import atexit
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, List, Optional, Sequence, TypeVar

from ..mp5.vector import collect_fallback_notices, print_fallback_notice

C = TypeVar("C")
T = TypeVar("T")
R = TypeVar("R")

# One lazily-created pool per process, reused across sweeps so workers
# pay the interpreter + import startup cost once per reproduction run,
# not once per figure panel.
_pool: Optional[ProcessPoolExecutor] = None
_pool_jobs = 0


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


def _get_pool(jobs: int) -> ProcessPoolExecutor:
    global _pool, _pool_jobs
    if _pool is not None and _pool_jobs != jobs:
        shutdown_pool(wait=False)
    if _pool is None:
        _pool, _pool_jobs = ProcessPoolExecutor(max_workers=jobs), jobs
    return _pool


def shutdown_pool(wait: bool = True) -> None:
    """Tear down the cached worker pool (idempotent; re-created lazily).

    ``wait=False`` drops a failed pool without joining its workers.
    """
    global _pool
    pool, _pool = _pool, None
    if pool is not None:
        pool.shutdown(wait=wait, cancel_futures=True)


atexit.register(shutdown_pool)


def parallel_map(
    fn: Callable[[T], R],
    tasks: Sequence[T],
    jobs: Optional[int] = None,
) -> List[R]:
    """Apply ``fn`` to every task, returning results in task order.

    Runs serially for ``jobs`` in (None, 1) or when there is at most one
    task; otherwise distributes over the cached process pool (changing
    ``jobs`` recreates it). See the module docstring for how failures
    surface.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    # Chunk so each worker round-trip amortizes pickling over several
    # tasks; cap at 4 waves per worker to keep the tail balanced.
    chunksize = max(1, len(tasks) // (jobs * 4))
    try:
        # map() submits every chunk before it returns, so a spawn
        # failure raises here; a task's own exception surfaces only
        # while the results are read, and leaves the pool healthy.
        results = _get_pool(jobs).map(
            _with_notices, [(fn, task) for task in tasks], chunksize=chunksize
        )
    except BaseException:
        shutdown_pool(wait=False)
        raise
    try:
        done = list(results)
    except BrokenProcessPool:
        shutdown_pool(wait=False)
        raise
    for _result, notices in done:
        for message in notices:
            print_fallback_notice(message)
    return [result for result, _notices in done]


def _with_notices(task):
    """Worker entry for :func:`parallel_map`: one task's result and the
    fallback notices it raised."""
    fn, arg = task
    with collect_fallback_notices() as notices:
        result = fn(arg)
    return result, notices


def _cell_seed(task):
    """Worker entry for :func:`map_cells`: one (cell, seed) task."""
    fn, cell, seed = task
    return fn(cell, seed)


def map_cells(
    fn: Callable[[C, int], R],
    cells: Sequence[C],
    seeds: Sequence[int],
    jobs: Optional[int] = None,
) -> List[List[R]]:
    """Run ``fn(cell, seed)`` over the whole cells x seeds grid.

    Returns one list per cell, in ``cells`` order, holding that cell's
    results in ``seeds`` order. The grid runs as one flat task list
    (cells-major, seeds-minor), so a multi-panel sweep keeps every
    worker busy rather than parallelizing panel by panel.
    """
    seeds = list(seeds)
    results = parallel_map(
        _cell_seed,
        [(fn, cell, seed) for cell in cells for seed in seeds],
        jobs=jobs,
    )
    n = len(seeds)
    return [results[i * n : (i + 1) * n] for i in range(len(cells))]
