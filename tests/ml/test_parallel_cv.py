"""Parallel cross-validation and tuning: bitwise identity across CPUs.

Every result on 2 CPUs (a real process pool) and 3 or 7 (a simulated
pool) equals the 1-CPU (inline) result.  The executor itself (ordering,
sizing, fallbacks) is tested in ``tests/test_parallel.py``.
"""

from functools import partial

import numpy as np
import pytest

from repro import parallel
from repro.ml import GaussianNB, GradientBoostingClassifier, spawn_seeds
from repro.ml.model_selection import _accepts_fold_seed, cross_validate
from repro.ml.tuning import grid_search
from tests.pools import PARITY_CPUS, executor, on_cpus


def _fold_seeded(fold_seed):
    return GradientBoostingClassifier(
        n_estimators=6, max_depth=2, seed=fold_seed
    )


def _on_every_cpu_count(run):
    """``run()`` on each of :data:`PARITY_CPUS`; picklable work never
    falls back inline."""
    results = []
    for n_cpus in PARITY_CPUS:
        before = parallel.STATS["fallbacks"]
        with executor(n_cpus):
            results.append(run())
        assert parallel.STATS["fallbacks"] == before, n_cpus
    return results


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 6))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    return X, y


class TestSpawnSeeds:
    def test_deterministic_for_int_seed(self):
        assert spawn_seeds(42, 5) == spawn_seeds(42, 5)

    def test_children_differ(self):
        seeds = spawn_seeds(0, 8)
        assert len(set(seeds)) == 8

    def test_different_parents_different_children(self):
        assert spawn_seeds(1, 4) != spawn_seeds(2, 4)

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)


class TestParallelCrossValidate:
    def test_identical_on_every_cpu_count(self, data):
        X, y = data
        factory = partial(
            GradientBoostingClassifier, n_estimators=8, max_depth=3, seed=0
        )
        serial, *others = _on_every_cpu_count(
            lambda: cross_validate(factory, X, y)
        )
        for result in others:
            assert result == serial  # bitwise: dict of exact floats

    def test_default_identical_to_one_cpu(self, data):
        X, y = data
        with on_cpus(1):
            serial = cross_validate(GaussianNB, X, y)
        assert cross_validate(GaussianNB, X, y) == serial

    def test_fold_seed_factories_get_distinct_seeds(self, data):
        X, y = data
        seen = []

        def factory(fold_seed):
            seen.append(fold_seed)
            return GaussianNB()

        with on_cpus(1):  # the closure records seeds in this process
            cross_validate(factory, X, y, n_splits=5)
        assert len(seen) == 5
        assert len(set(seen)) == 5
        assert seen == spawn_seeds(0, 5)

    def test_fold_seed_identical_across_worker_counts(self, data):
        X, y = data
        serial, *others = _on_every_cpu_count(
            lambda: cross_validate(_fold_seeded, X, y)
        )
        for result in others:
            assert result == serial

    def test_accepts_fold_seed_detection(self):
        assert _accepts_fold_seed(lambda fold_seed: None)
        assert not _accepts_fold_seed(lambda: None)
        assert not _accepts_fold_seed(lambda seed: None)
        assert not _accepts_fold_seed(GaussianNB)


class TestParallelGridSearch:
    def test_identical_on_every_cpu_count(self, data):
        X, y = data
        factory = partial(GradientBoostingClassifier, n_estimators=5, seed=0)
        grid = {"max_depth": [2, 3], "learning_rate": [0.1, 0.3]}
        serial, *others = _on_every_cpu_count(
            lambda: grid_search(factory, grid, X, y, n_splits=3)
        )
        for result in others:
            assert result == serial
            assert result.trials == serial.trials
