"""Histogram tree method: binning correctness and hist/exact parity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.gbdt import GradientBoostingClassifier, _MAX_BINS, _BinMapper
from tests.oracles.gbdt import (
    _HistTreeBuilder,
    first_proven_tie,
    fit_reference,
)


class TestBinMapper:
    def test_few_distinct_values_get_exact_midpoints(self):
        X = np.array([[0.0], [1.0], [3.0], [1.0]])
        mapper = _BinMapper(n_bins=256)
        codes = mapper.fit_transform(X)
        np.testing.assert_allclose(mapper.split_points_[0], [0.5, 2.0])
        np.testing.assert_array_equal(codes[:, 0], [0, 1, 2, 1])

    def test_code_threshold_equivalence(self):
        """codes <= t must select exactly the rows with x <= splits[t]."""
        rng = np.random.default_rng(0)
        X = rng.normal(size=(500, 3))
        X[:, 1] = np.round(X[:, 1] * 2)  # heavy ties
        mapper = _BinMapper(n_bins=16)
        codes = mapper.fit_transform(X)
        for j in range(X.shape[1]):
            for t, threshold in enumerate(mapper.split_points_[j]):
                np.testing.assert_array_equal(
                    codes[:, j] <= t, X[:, j] <= threshold
                )

    def test_constant_column_has_no_split_points(self):
        mapper = _BinMapper()
        codes = mapper.fit_transform(np.full((10, 1), 7.0))
        assert len(mapper.split_points_[0]) == 0
        assert np.all(codes == 0)

    def test_many_distinct_values_capped_at_n_bins(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(5000, 1))
        mapper = _BinMapper(n_bins=32)
        codes = mapper.fit_transform(X)
        assert len(mapper.split_points_[0]) <= 31
        assert codes.max() <= 31
        assert codes.dtype == np.uint8

    def test_rejects_out_of_range_n_bins(self):
        with pytest.raises(ValueError):
            _BinMapper(n_bins=1)
        with pytest.raises(ValueError):
            _BinMapper(n_bins=_MAX_BINS + 1)


class TestHistBuilder:
    def test_histogram_subtraction_consistent(self):
        """Sibling-by-subtraction equals directly built histograms."""
        rng = np.random.default_rng(2)
        X = rng.integers(0, 6, size=(300, 4)).astype(float)
        mapper = _BinMapper()
        codes = mapper.fit_transform(X)
        grad = rng.normal(size=300)
        hess = rng.uniform(0.1, 0.3, size=300)
        builder = _HistTreeBuilder(
            codes=codes,
            split_points=mapper.split_points_,
            max_depth=3,
            min_child_weight=1e-3,
            reg_lambda=1.0,
            gamma=0.0,
            colsample=1.0,
            rng=np.random.default_rng(0),
        )
        builder._set_columns(np.arange(4))

        rows = np.arange(300)
        left, right = rows[:120], rows[120:]
        parent_g, parent_h = builder._histogram(grad, hess, rows)
        left_g, left_h = builder._histogram(grad, hess, left)
        right_g, right_h = builder._histogram(grad, hess, right)
        np.testing.assert_allclose(parent_g - left_g, right_g, atol=1e-12)
        np.testing.assert_allclose(parent_h - left_h, right_h, atol=1e-12)


def _assert_hist_matches_exact(X, y, **params):
    """Returns the ``(tree, node)`` of a proven tie, or ``None``."""
    exact = fit_reference(X, y, builder="exact", **params)
    hist = GradientBoostingClassifier(**params).fit(X, y)
    # With n_bins >= n_distinct, every exact cut point exists as a bin
    # boundary, so both methods partition the training rows identically
    # and every leaf carries the same weight -- up to the first split
    # where two candidates tie in exact gain and the two summation
    # orders break the tie differently; nothing after it is comparable.
    tie = first_proven_tie(exact, hist, X)
    if tie is None:
        np.testing.assert_array_equal(exact.predict(X), hist.predict(X))
        np.testing.assert_allclose(
            exact.predict_proba(X), hist.predict_proba(X), rtol=0, atol=1e-9
        )
    return tie


class TestHistExactParity:
    @settings(deadline=None, max_examples=30, derandomize=True)
    @given(
        n=st.integers(20, 80),
        f=st.integers(1, 4),
        levels=st.integers(2, 10),
        seed=st.integers(0, 1000),
    )
    def test_hist_equals_exact_on_integer_grids(self, n, f, levels, seed):
        """With n_bins >= n_distinct the two methods agree on training
        predictions (thresholds may differ numerically, partitions not)."""
        rng = np.random.default_rng(seed)
        X = rng.integers(0, levels, size=(n, f)).astype(np.float64)
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            y[0] = 1 - y[0]
        _assert_hist_matches_exact(
            X, y, n_estimators=5, max_depth=3, seed=seed
        )

    def test_seed_279_takes_the_tie_branch(self):
        """Tree 0, root's right child: exact gains for features 0 and 2
        tie; exact keeps feature 0 and hist picks feature 2."""
        rng = np.random.default_rng(279)
        X = rng.integers(0, 5, size=(20, 3)).astype(np.float64)
        y = rng.integers(0, 2, size=20)
        tie = _assert_hist_matches_exact(
            X, y, n_estimators=5, max_depth=3, seed=279
        )
        exact = fit_reference(
            X, y, builder="exact", n_estimators=5, max_depth=3, seed=279
        )
        root_right = int(exact.trees_[0].children_right[0])
        assert tie == (0, root_right)
        assert exact.trees_[0].feature[root_right] == 0

    def test_parity_with_regularization_knobs(self):
        rng = np.random.default_rng(7)
        X = rng.integers(-3, 4, size=(200, 5)).astype(np.float64)
        y = (X[:, 0] + X[:, 1] > 0).astype(int)
        _assert_hist_matches_exact(
            X,
            y,
            n_estimators=8,
            max_depth=4,
            reg_lambda=2.0,
            gamma=0.1,
            min_child_weight=0.5,
            seed=3,
        )

    def test_parity_under_row_and_column_sampling(self):
        """Both methods consume the rng identically, so sampled rows and
        columns coincide and parity still holds."""
        rng = np.random.default_rng(11)
        X = rng.integers(0, 5, size=(300, 6)).astype(np.float64)
        y = (X.sum(axis=1) > 12).astype(int)
        _assert_hist_matches_exact(
            X,
            y,
            n_estimators=6,
            max_depth=3,
            subsample=0.8,
            colsample=0.5,
            seed=5,
        )

    def test_hist_close_to_exact_on_continuous_data(self):
        """On continuous features (binning is lossy) hist stays within
        paper-irrelevant distance of exact on held-out F1."""
        from repro.ml.metrics import f1_score

        rng = np.random.default_rng(0)
        n, f = 2000, 10
        X = rng.normal(size=(n, f))
        w = rng.normal(size=f)
        y = ((X @ w + 0.3 * rng.normal(size=n)) > 0).astype(int)
        X_test = rng.normal(size=(1000, f))
        y_test = ((X_test @ w) > 0).astype(int)
        scores = {}
        params = dict(n_estimators=15, max_depth=3, seed=0)
        for method, model in (
            ("exact", fit_reference(X, y, builder="exact", **params)),
            ("hist", GradientBoostingClassifier(**params).fit(X, y)),
        ):
            scores[method] = f1_score(y_test, model.predict(X_test))
        assert abs(scores["hist"] - scores["exact"]) < 0.02


class TestDefaultsAndImportances:
    def test_feature_importances_match_across_methods(self):
        rng = np.random.default_rng(4)
        X = rng.integers(0, 6, size=(250, 5)).astype(np.float64)
        y = (X[:, 2] > 2).astype(int)
        kw = dict(n_estimators=5, max_depth=3, seed=2)
        exact = fit_reference(X, y, builder="exact", **kw)
        hist = GradientBoostingClassifier(**kw).fit(X, y)
        np.testing.assert_array_equal(
            exact.feature_importances("weight"),
            hist.feature_importances("weight"),
        )

    def test_importances_sum_matches_split_count(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(200, 4))
        y = (X[:, 0] > 0).astype(int)
        model = GradientBoostingClassifier(
            n_estimators=5, max_depth=3, seed=0
        ).fit(X, y)
        weight = model.feature_importances("weight")
        n_internal = sum(
            int((tree.feature != -1).sum()) for tree in model.trees_
        )
        assert weight.sum() == n_internal
        assert weight.dtype == np.float64
