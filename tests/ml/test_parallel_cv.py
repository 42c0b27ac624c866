"""Parallel cross-validation and tuning: bitwise identity across workers.

The executor itself (ordering, clamping, fallbacks) is tested in
``tests/test_parallel.py``.
"""

import numpy as np
import pytest

from repro.ml import GaussianNB, GradientBoostingClassifier, spawn_seeds
from repro.ml.model_selection import _accepts_fold_seed, cross_validate
from repro.ml.tuning import grid_search


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
    def test_identical_for_1_and_4_workers(self, data):
        X, y = data
        factory = lambda: GradientBoostingClassifier(
            n_estimators=8, max_depth=3, seed=0
        )
        serial = cross_validate(factory, X, y, n_workers=1)
        parallel = cross_validate(factory, X, y, n_workers=4)
        assert serial == parallel  # bitwise: dict of exact floats

    def test_identical_to_default_serial_path(self, data):
        X, y = data
        assert cross_validate(GaussianNB, X, y) == cross_validate(
            GaussianNB, X, y, n_workers=4
        )

    def test_fold_seed_factories_get_distinct_seeds(self, data):
        X, y = data
        seen = []

        def factory(fold_seed):
            seen.append(fold_seed)
            return GaussianNB()

        cross_validate(factory, X, y, n_splits=5, n_workers=1)
        assert len(seen) == 5
        assert len(set(seen)) == 5
        assert seen == spawn_seeds(0, 5)

    def test_fold_seed_identical_across_worker_counts(self, data):
        X, y = data

        def factory(fold_seed):
            return GradientBoostingClassifier(
                n_estimators=6, max_depth=2, seed=fold_seed
            )

        assert cross_validate(factory, X, y, n_workers=1) == cross_validate(
            factory, X, y, n_workers=4
        )

    def test_accepts_fold_seed_detection(self):
        assert _accepts_fold_seed(lambda fold_seed: None)
        assert not _accepts_fold_seed(lambda: None)
        assert not _accepts_fold_seed(lambda seed: None)
        assert not _accepts_fold_seed(GaussianNB)


class TestParallelGridSearch:
    def test_identical_for_1_and_4_workers(self, data):
        X, y = data
        serial = grid_search(
            lambda **kw: GradientBoostingClassifier(
                n_estimators=5, seed=0, **kw
            ),
            {"max_depth": [2, 3], "learning_rate": [0.1, 0.3]},
            X,
            y,
            n_splits=3,
            n_workers=1,
        )
        parallel = grid_search(
            lambda **kw: GradientBoostingClassifier(
                n_estimators=5, seed=0, **kw
            ),
            {"max_depth": [2, 3], "learning_rate": [0.1, 0.3]},
            X,
            y,
            n_splits=3,
            n_workers=4,
        )
        assert serial == parallel
        assert serial.trials == parallel.trials
