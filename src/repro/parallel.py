"""One ordered process-pool map with one parallelism policy.

:func:`map_ordered` runs ``min(usable CPUs, tasks)`` workers; callers
never choose a count.  The cap is the process's CPU affinity mask, so
``taskset -c 0 ...`` (or a one-CPU cpuset) runs everything inline.  One
worker runs the tasks inline: no pool, nothing pickled.  A map started
inside another map also runs inline -- in a pool worker, or inside an
inline map -- so nested maps never start a second pool.  More workers
share one :class:`ProcessPoolExecutor` and results come back in task
order.  A pool that cannot be used (the first task does not pickle, or
spawning is refused) runs the same tasks inline, counted in
:data:`STATS` and logged.  A worker dying mid-run raises
:class:`BrokenProcessPool`.  An *initializer* builds per-worker state
that tasks read through :func:`worker_state`; inline runs drop it
afterwards.
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

#: True while this process runs a map's tasks (for good in a pool
#: worker); a map started then runs inline.
_IN_MAP = False


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where known)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def effective_workers(n_tasks: int) -> int:
    """Workers a map of *n_tasks* tasks runs on in this process."""
    if _IN_MAP:
        return 1
    return max(1, min(usable_cpus(), n_tasks))


def worker_state():
    """What the running map's *initializer* returned in this process."""
    return _STATE


def _init(initializer: Callable | None, initargs: tuple) -> None:
    global _STATE, _IN_MAP
    _IN_MAP = True
    _STATE = initializer(*initargs) if initializer is not None else None


def _inline(fn: Callable, tasks: Sequence, initializer, initargs) -> list:
    global _STATE, _IN_MAP
    saved = _STATE, _IN_MAP
    try:
        _init(initializer, initargs)
        return [fn(task) for task in tasks]
    finally:
        _STATE, _IN_MAP = saved


def map_ordered(
    fn: Callable,
    tasks: Sequence,
    initializer: Callable | None = None,
    initargs: tuple = (),
) -> list:
    """``[fn(task) for task in tasks]`` on :func:`effective_workers`
    processes."""
    workers = effective_workers(len(tasks))
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
