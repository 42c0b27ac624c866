"""Tests for repro.parallel: the one ordered process-pool executor.

The contract: the effective worker count is ``min(requested, usable
CPUs, tasks)``; one worker runs inline without building a pool or
pickling anything; results come back in task order; a pool that cannot
be used (an unpicklable task, a refused spawn) runs the same tasks
inline, counted and without leaving worker state behind; a worker dying
mid-run raises.  Cross-validation and grid search with picklable
factories run on real processes and equal their serial results.
"""

from __future__ import annotations

import os
import time
from concurrent.futures.process import BrokenProcessPool
from functools import partial

import numpy as np
import pytest

from repro import parallel
from repro.ml import GaussianNB, GradientBoostingClassifier
from repro.ml.model_selection import cross_validate
from repro.ml.tuning import grid_search
from repro.parallel import effective_workers, map_ordered, worker_state


def _square(t: int) -> int:
    return t * t


def _late_first(t: int) -> int:
    # Earlier tasks sleep longer, so workers finish out of task order.
    time.sleep(0.02 * (4 - t % 5))
    return t * t


def _pid_and_state(_task) -> tuple[int, object]:
    return os.getpid(), worker_state()


def _state_value(_task) -> object:
    return worker_state()


def _die(parent_pid: int) -> None:
    if os.getpid() == parent_pid:
        raise AssertionError("ran inline; the worker kill needs a pool")
    os._exit(13)


def _boom(*args, **kwargs):
    raise AssertionError("pool built or task pickled")


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 6))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    return X, y


class TestEffectiveWorkers:
    def test_clamped_to_cpus_and_tasks(self, cpus):
        cpus(8)
        assert effective_workers(None, 5) == 1
        assert effective_workers(0, 5) == 1
        assert effective_workers(4, 2) == 2
        assert effective_workers(16, 100) == 8
        assert effective_workers(4, 0) == 1

    def test_follows_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert parallel.usable_cpus() == 3

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert parallel.usable_cpus() == 5


class TestMapOrdered:
    def test_results_in_task_order(self, cpus):
        cpus(4)
        tasks = list(range(20))
        before = parallel.STATS["fallbacks"]
        assert map_ordered(_late_first, tasks, n_workers=4) == [
            t * t for t in tasks
        ]
        assert parallel.STATS["fallbacks"] == before

    def test_serial_when_workers_none(self):
        assert map_ordered(lambda t: t + 1, [1, 2], None) == [2, 3]

    def test_one_worker_never_builds_a_pool(self, monkeypatch, data):
        """n_workers=1 must run inline: no pool, no pickle probe --
        spawn and serialization overhead for nothing."""
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _boom)
        monkeypatch.setattr(parallel.pickle, "dumps", _boom)
        assert map_ordered(lambda t: t * 2, [1, 2, 3], n_workers=1) == [
            2,
            4,
            6,
        ]
        X, y = data
        cross_validate(GaussianNB, X, y, n_splits=3, n_workers=1)
        grid_search(
            lambda **kw: GaussianNB(),
            {"var_smoothing": [1e-9]},
            X,
            y,
            n_splits=3,
            n_workers=1,
        )

    def test_one_usable_cpu_runs_inline_when_four_requested(
        self, monkeypatch
    ):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _boom)
        monkeypatch.setattr(parallel.pickle, "dumps", _boom)
        before = parallel.STATS["fallbacks"]
        assert effective_workers(4, 3) == 1
        assert map_ordered(_square, [1, 2, 3], n_workers=4) == [1, 4, 9]
        assert parallel.STATS["fallbacks"] == before

    def test_probe_pickles_one_task_not_the_list(self, monkeypatch, cpus):
        cpus(2)
        probed = []
        real_dumps = parallel.pickle.dumps

        def spy(obj, *args, **kwargs):
            probed.append(obj)
            return real_dumps(obj, *args, **kwargs)

        monkeypatch.setattr(parallel.pickle, "dumps", spy)
        tasks = list(range(50))
        map_ordered(lambda t: t, tasks, n_workers=2)
        # The picklability probe must serialize (fn, first task), never
        # the whole task list (large batches would pay serialization
        # twice).
        assert probed, "probe never ran"
        fn, task = probed[0]
        assert task == tasks[0]
        assert not any(
            isinstance(obj, (list, tuple)) and len(obj) == len(tasks)
            for entry in probed
            for obj in (entry if isinstance(entry, tuple) else (entry,))
        )

    def test_unpicklable_task_runs_inline_and_is_counted(
        self, monkeypatch, cpus
    ):
        class Unpicklable:
            def __reduce__(self):
                raise TypeError("not picklable")

        cpus(2)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", _boom)
        before = parallel.STATS["fallbacks"]
        result = map_ordered(
            lambda t: 1, [Unpicklable(), Unpicklable()], n_workers=2
        )
        assert result == [1, 1]
        assert parallel.STATS["fallbacks"] == before + 1

    def test_refused_spawn_runs_inline_and_is_counted(
        self, monkeypatch, cpus
    ):
        def deny(*args, **kwargs):
            raise PermissionError("no processes in this sandbox")

        cpus(2)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", deny)
        before = parallel.STATS["fallbacks"]
        assert map_ordered(_square, [1, 2, 3], n_workers=2) == [1, 4, 9]
        assert parallel.STATS["fallbacks"] == before + 1

    def test_fallback_leaves_no_worker_state(self, monkeypatch, cpus):
        def deny(*args, **kwargs):
            raise OSError("fork refused")

        cpus(2)
        monkeypatch.setattr(parallel, "ProcessPoolExecutor", deny)
        result = map_ordered(
            _state_value,
            [0, 1],
            n_workers=2,
            initializer=dict,
            initargs=({"clone": 1},),
        )
        assert result == [{"clone": 1}, {"clone": 1}]
        assert worker_state() is None

    def test_initializer_state_lives_in_each_worker(self, cpus):
        cpus(2)
        results = map_ordered(
            _pid_and_state,
            list(range(6)),
            n_workers=2,
            initializer=os.getpid,
        )
        # Each task saw the state its own worker process built.
        assert all(pid == state for pid, state in results)
        assert all(pid != os.getpid() for pid, _ in results)
        assert worker_state() is None

    def test_dying_worker_raises(self, cpus):
        cpus(2)
        with pytest.raises(BrokenProcessPool):
            map_ordered(_die, [os.getpid()] * 2, n_workers=2)


class TestRealProcessParity:
    """Picklable factories reach the process pool and equal serial."""

    def test_cross_validate(self, data, cpus):
        cpus(2)
        X, y = data
        factory = partial(
            GradientBoostingClassifier, n_estimators=8, max_depth=3, seed=0
        )
        serial = cross_validate(factory, X, y, n_workers=1)
        before = parallel.STATS["fallbacks"]
        assert cross_validate(factory, X, y, n_workers=2) == serial
        assert parallel.STATS["fallbacks"] == before

    def test_grid_search(self, data, cpus):
        cpus(2)
        X, y = data
        factory = partial(GradientBoostingClassifier, n_estimators=5, seed=0)
        grid = {"max_depth": [2, 3], "learning_rate": [0.1, 0.3]}
        serial = grid_search(factory, grid, X, y, n_splits=3, n_workers=1)
        before = parallel.STATS["fallbacks"]
        parallel_result = grid_search(
            factory, grid, X, y, n_splits=3, n_workers=2
        )
        assert parallel.STATS["fallbacks"] == before
        assert parallel_result == serial
        assert parallel_result.trials == serial.trials
