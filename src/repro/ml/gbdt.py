"""Gradient-boosted trees with the second-order XGBoost objective.

CATS ships an XGBoost model as its detector classifier.  This module
implements the algorithm of Chen & Guestrin (KDD'16) from scratch:

* regularized learning objective -- each round fits a regression tree to
  the first/second-order gradients of the logistic loss, with leaf weight
  ``w* = -G / (H + lambda)`` and split gain
  ``1/2 * [GL^2/(HL+l) + GR^2/(HR+l) - G^2/(H+l)] - gamma``;
* shrinkage (``learning_rate``), row subsampling and column subsampling;
* histogram split finding: features are pre-binned *once per fit* into
  at most ``n_bins`` quantile bins (uint8 codes), then trees are grown
  by the level-synchronous engine of :mod:`repro.ml.hist_engine` --
  one composite-code ``np.bincount`` per tree level builds every
  node's gradient/hessian histograms at once, sibling histograms
  derive by subtraction (parent - child, as in LightGBM), and the best
  split of every node is found by one vectorized scan over the level's
  cumsum tensor.

The per-node histogram builder the engine is byte-identical to, the
exact greedy builder it is compared with on integer grids, and the
per-tree scoring loop live in ``tests/oracles/gbdt.py``.

Scoring goes through the packed-arena engine of
:mod:`repro.ml.inference`: ``decision_function`` lazily freezes the
fitted trees into one contiguous node arena and traverses them all
simultaneously.  During ``fit`` the margin update reuses the leaf
assignment recorded while each tree was grown (a gather instead of a
re-traversal); under ``subsample`` the gather covers the sampled rows
and only the left-out rows take ``tree.predict``.

Feature importance is exposed both as split counts (the "weight"
importance the paper plots in its Fig. 7: "the times this feature is
split during the construction process") and as accumulated gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.base import (
    BaseClassifier,
    as_rng,
    check_X_y,
    check_array,
    stable_sigmoid,
)

_LEAF = -1

#: Back-compat alias; the single implementation lives in ``repro.ml.base``.
_sigmoid = stable_sigmoid

#: Hard cap on histogram bins so bin codes always fit in uint8.
_MAX_BINS = 256


@dataclass
class _BoostTree:
    """One regression tree of the ensemble, in flat-array form."""

    children_left: np.ndarray
    children_right: np.ndarray
    feature: np.ndarray
    threshold: np.ndarray
    leaf_weight: np.ndarray
    split_gain: np.ndarray

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Return the leaf weight reached by every row of X."""
        n = X.shape[0]
        node = np.zeros(n, dtype=np.int64)
        active = np.arange(n)
        while len(active):
            cur = node[active]
            internal = self.feature[cur] != _LEAF
            active = active[internal]
            if len(active) == 0:
                break
            cur = node[active]
            feat = self.feature[cur]
            thr = self.threshold[cur]
            go_left = X[active, feat] <= thr
            node[active] = np.where(
                go_left, self.children_left[cur], self.children_right[cur]
            )
        return self.leaf_weight[node]


def _sample_columns(
    rng: np.random.Generator, n_features: int, colsample: float
) -> np.ndarray:
    """Column subset for one tree; the reference builders in
    ``tests/oracles/gbdt.py`` call it too, so a given seed selects
    identical columns in every builder."""
    n_cols = max(1, int(round(colsample * n_features)))
    if n_cols < n_features:
        return np.sort(rng.choice(n_features, size=n_cols, replace=False))
    return np.arange(n_features)


def bin_cuts(column: np.ndarray, n_bins: int) -> np.ndarray:
    """Sorted cut points splitting *column* into at most *n_bins* bins.

    The cuts are real values usable directly against the raw column
    (``x <= cut``):

    * when the column has at most ``n_bins`` distinct values, each value
      gets its own bin and the cuts are the midpoints between
      consecutive distinct values -- exactly the cut points the exact
      greedy scan would consider;
    * otherwise the cuts are interior quantiles of the column
      (deduplicated), giving an even mass split across bins.

    The GBDT's :class:`_BinMapper` and the drift monitor's reference
    histogram (:mod:`repro.mlops.drift`) both bin with it.
    """
    distinct = np.unique(column)
    if len(distinct) <= n_bins:
        return 0.5 * (distinct[:-1] + distinct[1:])
    probs = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
    return np.unique(np.quantile(column, probs))


class _BinMapper:
    """Pre-bins a feature matrix into at most ``n_bins`` quantile bins.

    Every feature's candidate split thresholds are its :func:`bin_cuts`;
    ``codes[i, j] <= t`` is then equivalent to
    ``X[i, j] <= thresholds[j][t]``.
    """

    def __init__(self, n_bins: int = _MAX_BINS) -> None:
        if not 2 <= n_bins <= _MAX_BINS:
            raise ValueError(
                f"n_bins must be in [2, {_MAX_BINS}], got {n_bins}"
            )
        self.n_bins = n_bins

    def fit_transform(self, X: np.ndarray) -> np.ndarray:
        """Compute per-feature thresholds and return the uint8 bin codes."""
        n, f = X.shape
        self.split_points_: list[np.ndarray] = []
        codes = np.empty((n, f), dtype=np.uint8)
        for j in range(f):
            column = X[:, j]
            splits = bin_cuts(column, self.n_bins)
            self.split_points_.append(splits)
            # code = number of thresholds strictly below x, so
            # code <= t  <=>  x <= splits[t].
            codes[:, j] = np.searchsorted(splits, column, side="left")
        return codes


class GradientBoostingClassifier(BaseClassifier):
    """Binary classifier boosting regression trees on the logistic loss.

    Parameters mirror the XGBoost knobs the paper would have used:

    ``n_estimators``, ``learning_rate``, ``max_depth``, ``reg_lambda``
    (L2 on leaf weights), ``gamma`` (min split gain), ``min_child_weight``
    (min hessian per child), ``subsample`` (row sampling per round) and
    ``colsample`` (column sampling per tree); plus ``n_bins``
    (histogram resolution, at most 256).
    """

    def __init__(
        self,
        n_estimators: int = 100,
        learning_rate: float = 0.2,
        max_depth: int = 4,
        reg_lambda: float = 1.0,
        gamma: float = 0.0,
        min_child_weight: float = 1.0,
        subsample: float = 1.0,
        colsample: float = 1.0,
        n_bins: int = _MAX_BINS,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError(
                f"learning_rate must be in (0, 1], got {learning_rate}"
            )
        if not 0.0 < subsample <= 1.0:
            raise ValueError(f"subsample must be in (0, 1], got {subsample}")
        if not 0.0 < colsample <= 1.0:
            raise ValueError(f"colsample must be in (0, 1], got {colsample}")
        if not 2 <= n_bins <= _MAX_BINS:
            raise ValueError(
                f"n_bins must be in [2, {_MAX_BINS}], got {n_bins}"
            )
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.min_child_weight = min_child_weight
        self.subsample = subsample
        self.colsample = colsample
        self.n_bins = n_bins
        self._seed = seed

    def fit(self, X, y) -> "GradientBoostingClassifier":
        """Boost ``n_estimators`` trees on ``(X, y)``."""
        X_arr, y_arr = check_X_y(X, y)
        rng = as_rng(self._seed)
        self.n_features_in_ = X_arr.shape[1]
        n = len(y_arr)
        y_float = y_arr.astype(np.float64)

        from repro.ml.hist_engine import LevelHistEngine

        mapper = _BinMapper(self.n_bins)
        codes = mapper.fit_transform(X_arr)
        # One engine per fit: the flat-code layout and per-level
        # histogram buffers persist across boosting rounds.
        engine = LevelHistEngine(
            codes=codes,
            split_points=mapper.split_points_,
            max_depth=self.max_depth,
            min_child_weight=self.min_child_weight,
            reg_lambda=self.reg_lambda,
            gamma=self.gamma,
            colsample=self.colsample,
        )

        # Initialize at the log-odds of the base rate, like xgboost's
        # base_score after the first boosting round.
        pos_rate = float(np.clip(y_float.mean(), 1e-6, 1.0 - 1e-6))
        self.base_margin_ = float(np.log(pos_rate / (1.0 - pos_rate)))

        margin = np.full(n, self.base_margin_, dtype=np.float64)
        self.trees_: list[_BoostTree] = []
        self._packed = None
        # The engine-recorded leaf assignment replaces the margin-update
        # re-traversal of X: one leaf-weight gather per round,
        # bit-identical to tree.predict (the engine partitions on the
        # same `x <= threshold` predicate).  Subsampled rounds gather
        # over the sampled rows and re-traverse only the left-out rows,
        # which have no recorded leaf.
        for _ in range(self.n_estimators):
            prob = stable_sigmoid(margin)
            grad = prob - y_float
            hess = prob * (1.0 - prob)
            if self.subsample < 1.0:
                n_rows = max(2, int(round(self.subsample * n)))
                rows = np.sort(rng.choice(n, size=n_rows, replace=False))
            else:
                rows = np.arange(n)
            tree, leaf_of = engine.build(grad, hess, rows, rng)
            if len(rows) == n:
                margin += self.learning_rate * tree.leaf_weight[leaf_of]
            else:
                margin[rows] += (
                    self.learning_rate * tree.leaf_weight[leaf_of[rows]]
                )
                out = np.ones(n, dtype=bool)
                out[rows] = False
                out_rows = np.flatnonzero(out)
                margin[out_rows] += (
                    self.learning_rate * tree.predict(X_arr[out_rows])
                )
            self.trees_.append(tree)
        return self

    def _packed_ensemble(self):
        """Lazily built packed arena over ``trees_`` (see
        :mod:`repro.ml.inference`); ``fit`` invalidates it.  Models
        restored by :mod:`repro.core.persistence` build it on first
        use."""
        packed = getattr(self, "_packed", None)
        if packed is None:
            from repro.ml.inference import PackedEnsemble

            packed = PackedEnsemble.from_gbdt(self)
            self._packed = packed
        return packed

    def decision_function(self, X) -> np.ndarray:
        """Return the raw boosted margin (log-odds) per sample.

        Scoring runs through the packed-ensemble arena (all trees
        traversed simultaneously), bitwise identical to the per-tree
        loop.
        """
        X_arr = check_array(X)
        self._check_n_features(X_arr)
        return self._packed_ensemble().margins(X_arr)

    def predict_proba(self, X) -> np.ndarray:
        """Return ``(n, 2)`` class probabilities via the logistic link."""
        prob_pos = stable_sigmoid(self.decision_function(X))
        return np.column_stack([1.0 - prob_pos, prob_pos])

    # -- importance ---------------------------------------------------------

    def feature_importances(self, kind: str = "weight") -> np.ndarray:
        """Per-feature importance over the whole ensemble.

        ``kind='weight'`` counts splits per feature (the measure behind the
        paper's Fig. 7); ``kind='gain'`` accumulates split gain instead.
        """
        self._check_fitted()
        if kind not in ("weight", "gain"):
            raise ValueError(f"unknown importance kind {kind!r}")
        internal = [tree.feature != _LEAF for tree in self.trees_]
        features = [
            tree.feature[mask] for tree, mask in zip(self.trees_, internal)
        ]
        if not any(len(f) for f in features):
            return np.zeros(self.n_features_in_, dtype=np.float64)
        all_features = np.concatenate(features)
        if kind == "weight":
            weights = None
        else:
            weights = np.concatenate(
                [
                    tree.split_gain[mask]
                    for tree, mask in zip(self.trees_, internal)
                ]
            )
        return np.bincount(
            all_features, weights=weights, minlength=self.n_features_in_
        ).astype(np.float64)

    @property
    def total_node_count(self) -> int:
        """Total node count across all boosted trees."""
        self._check_fitted()
        return int(sum(len(tree.feature) for tree in self.trees_))
