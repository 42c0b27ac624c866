"""One ordered process-pool map with one fallback policy.

:func:`map_ordered` runs ``min(requested, usable CPUs, tasks)`` workers.
One worker runs the tasks inline: no pool, nothing pickled.  More share
one :class:`ProcessPoolExecutor` and results come back in task order.
A pool that cannot be used (the first task does not pickle, or spawning
is refused) runs the same tasks inline, counted in :data:`STATS` and
logged.  A worker dying mid-run raises :class:`BrokenProcessPool`.  An
*initializer* builds per-worker state that tasks read through
:func:`worker_state`; inline runs drop it afterwards.
"""

from __future__ import annotations

import logging
import os
import pickle
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor

_log = logging.getLogger(__name__)

#: ``fallbacks``: maps that wanted a pool but ran inline (process-wide).
STATS = {"fallbacks": 0}

_STATE = None


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where known)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def effective_workers(requested: int | None, n_tasks: int) -> int:
    """Workers a map of *n_tasks* tasks runs on when *requested* ask."""
    workers = min(requested or 1, n_tasks)
    return min(workers, usable_cpus()) if workers > 1 else 1


def worker_state():
    """What the running map's *initializer* returned in this process."""
    return _STATE


def _init(initializer: Callable | None, initargs: tuple) -> None:
    global _STATE
    _STATE = initializer(*initargs) if initializer is not None else None


def _inline(fn: Callable, tasks: Sequence, initializer, initargs) -> list:
    global _STATE
    saved = _STATE
    try:
        _init(initializer, initargs)
        return [fn(task) for task in tasks]
    finally:
        _STATE = saved


def map_ordered(
    fn: Callable,
    tasks: Sequence,
    n_workers: int | None,
    initializer: Callable | None = None,
    initargs: tuple = (),
) -> list:
    """``[fn(task) for task in tasks]`` on up to *n_workers* processes."""
    workers = effective_workers(n_workers, len(tasks))
    if workers <= 1:
        return _inline(fn, tasks, initializer, initargs)
    pool = None
    try:
        # Tasks of one map share their shape: the first stands for all.
        pickle.dumps((fn, tasks[0]))
        pool = ProcessPoolExecutor(
            workers, initializer=_init, initargs=(initializer, initargs)
        )
        results = pool.map(fn, tasks)  # submits every task: forks here
    except (pickle.PicklingError, TypeError, AttributeError, OSError) as exc:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        STATS["fallbacks"] += 1
        _log.warning("process pool unusable (%s); running inline", exc)
        return _inline(fn, tasks, initializer, initargs)
    with pool:
        return list(results)
