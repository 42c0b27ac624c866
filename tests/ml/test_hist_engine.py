"""Level-synchronous histogram engine: byte-identity to the per-node path.

``tree_method="hist"`` now grows trees with
:class:`repro.ml.hist_engine.LevelHistEngine`; ``"hist-pernode"`` keeps
the original recursive :class:`~repro.ml.gbdt._HistTreeBuilder` as the
reference.  These tests pin the contract the engine is built on: the
engine must produce byte-identical trees (node arrays, split points,
leaf weights), identical recorded leaf assignments, and
``np.array_equal`` margins.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.gbdt import (
    GradientBoostingClassifier,
    _BinMapper,
    _HistTreeBuilder,
)
from repro.ml.hist_engine import LevelHistEngine

_TREE_FIELDS = (
    "children_left",
    "children_right",
    "feature",
    "threshold",
    "leaf_weight",
    "split_gain",
)


def _assert_trees_byte_identical(a, b):
    assert len(a.trees_) == len(b.trees_)
    for ta, tb in zip(a.trees_, b.trees_):
        for field in _TREE_FIELDS:
            xa, xb = getattr(ta, field), getattr(tb, field)
            assert xa.dtype == xb.dtype, field
            np.testing.assert_array_equal(xa, xb, err_msg=field)


def _assert_engine_matches_pernode(X, y, **params):
    reference = GradientBoostingClassifier(
        tree_method="hist-pernode", **params
    ).fit(X, y)
    engine = GradientBoostingClassifier(tree_method="hist", **params).fit(
        X, y
    )
    _assert_trees_byte_identical(reference, engine)
    assert np.array_equal(
        reference.decision_function_reference(X),
        engine.decision_function_reference(X),
    )
    return reference, engine


class TestEngineMatchesPerNode:
    @settings(deadline=None, max_examples=30, derandomize=True)
    @given(
        n=st.integers(20, 120),
        f=st.integers(1, 5),
        seed=st.integers(0, 1000),
        colsample=st.sampled_from([1.0, 0.6, 0.3]),
        subsample=st.sampled_from([1.0, 0.7]),
    )
    def test_byte_identical_on_continuous_data(
        self, n, f, seed, colsample, subsample
    ):
        """Continuous features: trees, margins and dtypes all
        byte-identical to the per-node builder."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, f))
        y = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(int)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        _assert_engine_matches_pernode(
            X,
            y,
            n_estimators=4,
            max_depth=4,
            colsample=colsample,
            subsample=subsample,
            seed=seed,
        )

    @settings(deadline=None, max_examples=25, derandomize=True)
    @given(
        n=st.integers(20, 80),
        f=st.integers(1, 4),
        levels=st.integers(2, 10),
        seed=st.integers(0, 1000),
    )
    def test_byte_identical_on_integer_grids(self, n, f, levels, seed):
        """Integer grids (heavy bin ties, the regime where the exact
        method is also comparable) stay byte-identical too."""
        rng = np.random.default_rng(seed)
        X = rng.integers(0, levels, size=(n, f)).astype(np.float64)
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        _assert_engine_matches_pernode(
            X,
            y,
            n_estimators=5,
            max_depth=3,
            seed=seed,
        )

    def test_regularization_knobs(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 6))
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        _assert_engine_matches_pernode(
            X,
            y,
            n_estimators=6,
            max_depth=5,
            reg_lambda=2.0,
            gamma=0.3,
            min_child_weight=0.5,
            n_bins=16,
            seed=7,
        )


class TestEngineMatchesExactOnGrids:
    @settings(deadline=None, max_examples=20, derandomize=True)
    @given(
        n=st.integers(20, 80),
        f=st.integers(1, 4),
        levels=st.integers(2, 8),
        seed=st.integers(0, 1000),
    )
    def test_engine_equals_exact_predictions(self, n, f, levels, seed):
        """With n_bins >= n_distinct the engine partitions rows exactly
        like the exact greedy method (same contract the per-node hist
        path already honored)."""
        rng = np.random.default_rng(seed)
        X = rng.integers(0, levels, size=(n, f)).astype(np.float64)
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        params = dict(n_estimators=5, max_depth=3, seed=seed)
        exact = GradientBoostingClassifier(
            tree_method="exact", **params
        ).fit(X, y)
        engine = GradientBoostingClassifier(tree_method="hist", **params).fit(
            X, y
        )
        np.testing.assert_array_equal(exact.predict(X), engine.predict(X))
        np.testing.assert_allclose(
            exact.predict_proba(X), engine.predict_proba(X), rtol=0, atol=1e-9
        )


class TestDegenerateTrees:
    def test_constant_features_give_single_node_trees(self):
        """No split points at all: every tree is one root leaf, exactly
        like the per-node builder's."""
        X = np.full((40, 3), 2.5)
        y = np.array([0, 1] * 20)
        ref, eng = _assert_engine_matches_pernode(
            X, y, n_estimators=3, seed=0
        )
        for tree in eng.trees_:
            assert len(tree.feature) == 1
            assert tree.feature[0] == -1

    def test_huge_gamma_blocks_all_splits(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] > 0).astype(int)
        ref, eng = _assert_engine_matches_pernode(
            X, y, n_estimators=2, gamma=1e9, seed=1
        )
        assert all(len(t.feature) == 1 for t in eng.trees_)

    def test_huge_min_child_weight_stops_at_root(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 2))
        y = (X[:, 0] > 0).astype(int)
        _assert_engine_matches_pernode(
            X, y, n_estimators=2, min_child_weight=1e6, seed=2
        )


class TestEngineDirect:
    """White-box checks against the builder on a single tree."""

    def _fixture(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(300, 4))
        X[:, 1] = np.round(X[:, 1])  # ties
        mapper = _BinMapper(n_bins=32)
        codes = mapper.fit_transform(X)
        grad = rng.normal(size=300)
        hess = rng.uniform(0.1, 0.4, size=300)
        return codes, mapper.split_points_, grad, hess

    def test_single_tree_and_leaf_assignment_parity(self):
        codes, split_points, grad, hess = self._fixture()
        params = dict(
            max_depth=4,
            min_child_weight=1e-3,
            reg_lambda=1.0,
            gamma=0.0,
            colsample=0.75,
        )
        rows = np.arange(300)
        ref_tree, ref_leaf = _HistTreeBuilder(
            codes=codes,
            split_points=split_points,
            rng=np.random.default_rng(9),
            **params,
        ).build(grad, hess, rows)
        engine = LevelHistEngine(
            codes=codes, split_points=split_points, **params
        )
        eng_tree, eng_leaf = engine.build(
            grad, hess, rows, np.random.default_rng(9)
        )
        for field in _TREE_FIELDS:
            a = getattr(ref_tree, field)
            b = getattr(eng_tree, field)
            assert a.dtype == b.dtype, field
            np.testing.assert_array_equal(a, b, err_msg=field)
        assert ref_leaf.dtype == eng_leaf.dtype
        np.testing.assert_array_equal(ref_leaf, eng_leaf)

    def test_buffers_reused_across_builds_stay_correct(self):
        """Back-to-back builds reuse the ping-pong buffers; a second
        build must not see the first one's stale cells."""
        codes, split_points, grad, hess = self._fixture()
        params = dict(
            max_depth=3,
            min_child_weight=1e-3,
            reg_lambda=1.0,
            gamma=0.0,
            colsample=1.0,
        )
        rows = np.arange(300)
        engine = LevelHistEngine(
            codes=codes, split_points=split_points, **params
        )
        first, _ = engine.build(grad, hess, rows, np.random.default_rng(0))
        # Different gradients in between -> different buffer contents.
        engine.build(grad * -2.0, hess, rows, np.random.default_rng(1))
        again, _ = engine.build(grad, hess, rows, np.random.default_rng(0))
        for field in _TREE_FIELDS:
            np.testing.assert_array_equal(
                getattr(first, field), getattr(again, field), err_msg=field
            )


class TestMethodRegistry:
    def test_pernode_method_accepted(self):
        assert (
            GradientBoostingClassifier(tree_method="hist-pernode").tree_method
            == "hist-pernode"
        )
