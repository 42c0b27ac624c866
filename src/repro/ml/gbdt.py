"""Gradient-boosted trees with the second-order XGBoost objective.

CATS ships an XGBoost model as its detector classifier.  This module
implements the algorithm of Chen & Guestrin (KDD'16) from scratch:

* regularized learning objective -- each round fits a regression tree to
  the first/second-order gradients of the logistic loss, with leaf weight
  ``w* = -G / (H + lambda)`` and split gain
  ``1/2 * [GL^2/(HL+l) + GR^2/(HR+l) - G^2/(H+l)] - gamma``;
* shrinkage (``learning_rate``), row subsampling and column subsampling;
* three split-finding strategies, selected by ``tree_method``:

  - ``"hist"`` (the default): features are pre-binned *once per fit*
    into at most ``n_bins`` quantile bins (uint8 codes), then trees are
    grown by the level-synchronous engine of
    :mod:`repro.ml.hist_engine` -- one composite-code ``np.bincount``
    per tree level builds every node's gradient/hessian histograms at
    once, sibling histograms derive by subtraction (parent - child, as
    in LightGBM), the best split of every node is found by one
    vectorized scan over the level's cumsum tensor.  Bit-identical to
    ``"hist-pernode"`` (see the engine module docstring for the
    ordering argument).
  - ``"hist-pernode"``: the original per-node histogram builder, kept
    as the engine's bit-identity reference -- a gather plus one flat
    ``np.bincount`` per node, boundary scan per feature in Python.
  - ``"exact"``: greedy split finding over sorted columns, kept as the
    quality-parity reference.  Each column is argsorted once at the
    tree root; nodes recover their sorted order by filtering the root
    order with a membership mask instead of re-slicing and re-sorting.

Scoring goes through the packed-arena engine of
:mod:`repro.ml.inference`: ``decision_function`` lazily freezes the
fitted trees into one contiguous node arena and traverses them all
simultaneously; ``decision_function_reference`` keeps the per-tree loop
as the bit-identity oracle.  During ``fit`` the margin update reuses the
leaf assignment recorded while each tree was grown (a gather instead
of a re-traversal); under ``subsample`` the gather covers the sampled
rows and only the left-out rows take ``tree.predict``.

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
    """Column subset for one tree; shared by both tree methods so a
    given seed selects identical columns under ``hist`` and ``exact``."""
    n_cols = max(1, int(round(colsample * n_features)))
    if n_cols < n_features:
        return np.sort(rng.choice(n_features, size=n_cols, replace=False))
    return np.arange(n_features)


class _TreeArrays:
    """Flat node-array accumulator shared by both tree builders."""

    def __init__(self) -> None:
        self.children_left: list[int] = []
        self.children_right: list[int] = []
        self.feature: list[int] = []
        self.threshold: list[float] = []
        self.leaf_weight: list[float] = []
        self.split_gain: list[float] = []

    def add_node(self, weight: float) -> int:
        node_id = len(self.feature)
        self.children_left.append(_LEAF)
        self.children_right.append(_LEAF)
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.leaf_weight.append(weight)
        self.split_gain.append(0.0)
        return node_id

    def make_split(
        self,
        node_id: int,
        feature: int,
        threshold: float,
        gain: float,
        left: int,
        right: int,
    ) -> None:
        self.feature[node_id] = feature
        self.threshold[node_id] = threshold
        self.children_left[node_id] = left
        self.children_right[node_id] = right
        self.split_gain[node_id] = gain

    def freeze(self) -> _BoostTree:
        return _BoostTree(
            children_left=np.array(self.children_left, dtype=np.int64),
            children_right=np.array(self.children_right, dtype=np.int64),
            feature=np.array(self.feature, dtype=np.int64),
            threshold=np.array(self.threshold, dtype=np.float64),
            leaf_weight=np.array(self.leaf_weight, dtype=np.float64),
            split_gain=np.array(self.split_gain, dtype=np.float64),
        )


class _BoostTreeBuilder:
    """Grows one tree on (gradient, hessian) pairs by exact greedy search.

    Each selected column is argsorted once over the root rows; every
    node recovers its own sorted order by filtering that root order
    through a membership mask (O(root rows) per column) instead of
    re-slicing and re-sorting the column (O(m log m) per node).  The
    filtered order equals a stable sort of the node's rows, so the
    grown tree is bit-identical to the one the per-node-sorting
    implementation produced.
    """

    def __init__(
        self,
        max_depth: int,
        min_child_weight: float,
        reg_lambda: float,
        gamma: float,
        colsample: float,
        rng: np.random.Generator,
    ) -> None:
        self.max_depth = max_depth
        self.min_child_weight = min_child_weight
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.colsample = colsample
        self.rng = rng
        self.arrays = _TreeArrays()

    def build(
        self, X: np.ndarray, grad: np.ndarray, hess: np.ndarray, rows: np.ndarray
    ) -> tuple[_BoostTree, np.ndarray]:
        """Grow one tree on the given rows' gradient statistics.

        Returns the frozen tree and the per-row leaf assignment: for
        every row in *rows*, the id of the leaf it landed in (other
        positions are zero).  The boosting loop updates the margin by
        gathering leaf weights through this map instead of re-traversing
        X.
        """
        columns = _sample_columns(self.rng, X.shape[1], self.colsample)
        # Root-level sort cache: rows ordered by each column's value.
        # Stable (mergesort) ties resolve by ascending original index,
        # matching a stable per-node sort of any descendant's rows.
        self._root_order = {
            int(feature): rows[
                np.argsort(X[rows, feature], kind="mergesort")
            ]
            for feature in columns
        }
        self._n_total = X.shape[0]
        self._leaf_of = np.zeros(X.shape[0], dtype=np.intp)
        self._grow(X, grad, hess, rows, columns, depth=0)
        return self.arrays.freeze(), self._leaf_of

    def _grow(
        self,
        X: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        rows: np.ndarray,
        columns: np.ndarray,
        depth: int,
    ) -> int:
        g_sum = float(grad[rows].sum())
        h_sum = float(hess[rows].sum())
        weight = -g_sum / (h_sum + self.reg_lambda)
        node_id = self.arrays.add_node(weight)
        # Record the deepest node seen per row; descendants overwrite
        # their subset, so after the recursion this holds the leaf ids.
        self._leaf_of[rows] = node_id
        if depth >= self.max_depth or h_sum < 2.0 * self.min_child_weight:
            return node_id
        split = self._best_split(X, grad, hess, rows, columns, g_sum, h_sum)
        if split is None:
            return node_id
        feature, threshold, gain = split
        mask = X[rows, feature] <= threshold
        left = self._grow(X, grad, hess, rows[mask], columns, depth + 1)
        right = self._grow(X, grad, hess, rows[~mask], columns, depth + 1)
        self.arrays.make_split(node_id, feature, threshold, gain, left, right)
        return node_id

    def _best_split(
        self,
        X: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        rows: np.ndarray,
        columns: np.ndarray,
        g_sum: float,
        h_sum: float,
    ) -> tuple[int, float, float] | None:
        lam = self.reg_lambda
        parent_score = g_sum * g_sum / (h_sum + lam)
        best: tuple[int, float, float] | None = None
        best_gain = 0.0
        in_node = np.zeros(self._n_total, dtype=bool)
        in_node[rows] = True
        for feature in columns:
            root_sorted = self._root_order[int(feature)]
            node_sorted = root_sorted[in_node[root_sorted]]
            col_sorted = X[node_sorted, feature]
            g_cum = np.cumsum(grad[node_sorted])
            h_cum = np.cumsum(hess[node_sorted])
            valid = np.flatnonzero(col_sorted[:-1] < col_sorted[1:])
            if len(valid) == 0:
                continue
            gl = g_cum[valid]
            hl = h_cum[valid]
            gr = g_sum - gl
            hr = h_sum - hl
            ok = (hl >= self.min_child_weight) & (hr >= self.min_child_weight)
            if not np.any(ok):
                continue
            gains = 0.5 * (
                gl * gl / (hl + lam) + gr * gr / (hr + lam) - parent_score
            ) - self.gamma
            gains[~ok] = -np.inf
            best_local = int(np.argmax(gains))
            if gains[best_local] > best_gain:
                cut = valid[best_local]
                threshold = 0.5 * (col_sorted[cut] + col_sorted[cut + 1])
                best_gain = float(gains[best_local])
                best = (int(feature), float(threshold), best_gain)
        return best


class _BinMapper:
    """Pre-bins a feature matrix into at most ``n_bins`` quantile bins.

    For every feature, the candidate split thresholds are real values
    usable directly against the raw matrix (``x <= threshold``):

    * when a feature has at most ``n_bins`` distinct values, each value
      gets its own bin and the thresholds are the midpoints between
      consecutive distinct values -- exactly the cut points the exact
      greedy scan would consider;
    * otherwise thresholds are interior quantiles of the column
      (deduplicated), giving an even mass split across bins.

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
            distinct = np.unique(column)
            if len(distinct) <= self.n_bins:
                splits = 0.5 * (distinct[:-1] + distinct[1:])
            else:
                probs = np.linspace(0.0, 1.0, self.n_bins + 1)[1:-1]
                splits = np.unique(np.quantile(column, probs))
            self.split_points_.append(splits)
            # code = number of thresholds strictly below x, so
            # code <= t  <=>  x <= splits[t].
            codes[:, j] = np.searchsorted(splits, column, side="left")
        return codes

    @property
    def n_bins_per_feature(self) -> np.ndarray:
        return np.array(
            [len(s) + 1 for s in self.split_points_], dtype=np.int64
        )


class _HistTreeBuilder:
    """Grows one tree from pre-binned codes using per-node histograms.

    Per node, gradient/hessian histograms over the selected columns are
    built with a single flat ``np.bincount`` each; splits are found by
    scanning cumulative sums over bin boundaries.  After a split, only
    the smaller child's histogram is built directly -- the sibling's is
    the parent's minus the child's (LightGBM's subtraction trick), so
    histogram cost per level is bounded by the smaller halves.
    """

    def __init__(
        self,
        codes: np.ndarray,
        split_points: list[np.ndarray],
        max_depth: int,
        min_child_weight: float,
        reg_lambda: float,
        gamma: float,
        colsample: float,
        rng: np.random.Generator,
    ) -> None:
        self.codes = codes
        self.split_points = split_points
        self.max_depth = max_depth
        self.min_child_weight = min_child_weight
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.colsample = colsample
        self.rng = rng
        self.arrays = _TreeArrays()

    def build(
        self, grad: np.ndarray, hess: np.ndarray, rows: np.ndarray
    ) -> tuple[_BoostTree, np.ndarray]:
        """Grow one tree; returns it with the per-row leaf assignment
        (see :meth:`_BoostTreeBuilder.build`).  The code partition
        ``codes <= cut`` is equivalent to ``X <= split_points[cut]``
        (searchsorted ``side="left"``), so the recorded leaves match a
        predict-time traversal of the raw matrix exactly."""
        self._set_columns(
            _sample_columns(self.rng, self.codes.shape[1], self.colsample)
        )
        self._leaf_of = np.zeros(self.codes.shape[0], dtype=np.intp)
        self._grow(grad, hess, rows, hist=None, depth=0)
        return self.arrays.freeze(), self._leaf_of

    def _set_columns(self, columns: np.ndarray) -> None:
        """Lay out this tree's histogram: per-column bin offsets and the
        pre-offset flat codes, so each node's histogram is a single
        gather + ravel + bincount."""
        self.columns = columns
        n_bins = np.array(
            [len(self.split_points[j]) + 1 for j in columns], dtype=np.intp
        )
        self._offsets = np.concatenate([[0], np.cumsum(n_bins)[:-1]])
        self._n_bins = n_bins
        self._total_bins = int(n_bins.sum())
        self._flat_codes = (
            self.codes[:, columns].astype(np.intp)
            + self._offsets[np.newaxis, :]
        )

    def _histogram(
        self, grad: np.ndarray, hess: np.ndarray, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Flat per-(column, bin) gradient and hessian sums."""
        flat = self._flat_codes[rows].ravel()
        n_cols = len(self.columns)
        hist_g = np.bincount(
            flat,
            weights=np.repeat(grad[rows], n_cols),
            minlength=self._total_bins,
        )
        hist_h = np.bincount(
            flat,
            weights=np.repeat(hess[rows], n_cols),
            minlength=self._total_bins,
        )
        return hist_g, hist_h

    def _grow(
        self,
        grad: np.ndarray,
        hess: np.ndarray,
        rows: np.ndarray,
        hist: tuple[np.ndarray, np.ndarray] | None,
        depth: int,
    ) -> int:
        g_sum = float(grad[rows].sum())
        h_sum = float(hess[rows].sum())
        weight = -g_sum / (h_sum + self.reg_lambda)
        node_id = self.arrays.add_node(weight)
        self._leaf_of[rows] = node_id
        if depth >= self.max_depth or h_sum < 2.0 * self.min_child_weight:
            return node_id
        if hist is None:
            hist = self._histogram(grad, hess, rows)
        split = self._best_split(hist, g_sum, h_sum)
        if split is None:
            return node_id
        feature, ci, cut, threshold, gain = split
        left_mask = self.codes[rows, feature] <= cut
        rows_left = rows[left_mask]
        rows_right = rows[~left_mask]

        # Sibling subtraction: build the smaller child's histogram
        # directly, derive the other as parent - child.  Skip the work
        # entirely when neither child can split again.
        child_depth = depth + 1
        children_may_split = child_depth < self.max_depth
        hist_left: tuple[np.ndarray, np.ndarray] | None = None
        hist_right: tuple[np.ndarray, np.ndarray] | None = None
        if children_may_split:
            if len(rows_left) <= len(rows_right):
                hist_left = self._histogram(grad, hess, rows_left)
                hist_right = (
                    hist[0] - hist_left[0], hist[1] - hist_left[1]
                )
            else:
                hist_right = self._histogram(grad, hess, rows_right)
                hist_left = (
                    hist[0] - hist_right[0], hist[1] - hist_right[1]
                )
        left = self._grow(grad, hess, rows_left, hist_left, child_depth)
        right = self._grow(grad, hess, rows_right, hist_right, child_depth)
        self.arrays.make_split(node_id, feature, threshold, gain, left, right)
        return node_id

    def _best_split(
        self,
        hist: tuple[np.ndarray, np.ndarray],
        g_sum: float,
        h_sum: float,
    ) -> tuple[int, int, int, float, float] | None:
        lam = self.reg_lambda
        parent_score = g_sum * g_sum / (h_sum + lam)
        hist_g, hist_h = hist
        best: tuple[int, int, int, float, float] | None = None
        best_gain = 0.0
        for ci, feature in enumerate(self.columns):
            splits = self.split_points[feature]
            if len(splits) == 0:
                continue
            lo = self._offsets[ci]
            hi = lo + self._n_bins[ci]
            # GL/HL at boundary t = totals over bins 0..t.
            gl = np.cumsum(hist_g[lo:hi])[:-1]
            hl = np.cumsum(hist_h[lo:hi])[:-1]
            gr = g_sum - gl
            hr = h_sum - hl
            denom_l = hl + lam
            denom_r = hr + lam
            ok = (
                (hl >= self.min_child_weight)
                & (hr >= self.min_child_weight)
                & (denom_l > 0)
                & (denom_r > 0)
            )
            if not np.any(ok):
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                gains = 0.5 * (
                    gl * gl / denom_l + gr * gr / denom_r - parent_score
                ) - self.gamma
            gains[~ok] = -np.inf
            best_local = int(np.argmax(gains))
            if gains[best_local] > best_gain:
                best_gain = float(gains[best_local])
                best = (
                    int(feature),
                    ci,
                    best_local,
                    float(splits[best_local]),
                    best_gain,
                )
        return best


class GradientBoostingClassifier(BaseClassifier):
    """Binary classifier boosting regression trees on the logistic loss.

    Parameters mirror the XGBoost knobs the paper would have used:

    ``n_estimators``, ``learning_rate``, ``max_depth``, ``reg_lambda``
    (L2 on leaf weights), ``gamma`` (min split gain), ``min_child_weight``
    (min hessian per child), ``subsample`` (row sampling per round) and
    ``colsample`` (column sampling per tree); plus ``tree_method``
    (``"hist"`` default -- the level-synchronous engine;
    ``"hist-pernode"`` and ``"exact"`` are the retained references) and
    ``n_bins`` (histogram resolution, at most 256).
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
        tree_method: str = "hist",
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
        if tree_method not in ("hist", "hist-pernode", "exact"):
            raise ValueError(
                "tree_method must be 'hist', 'hist-pernode' or 'exact', "
                f"got {tree_method!r}"
            )
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
        self.tree_method = tree_method
        self.n_bins = n_bins
        self._seed = seed

    def fit(self, X, y) -> "GradientBoostingClassifier":
        """Boost ``n_estimators`` trees on ``(X, y)``."""
        X_arr, y_arr = check_X_y(X, y)
        rng = as_rng(self._seed)
        self.n_features_in_ = X_arr.shape[1]
        n = len(y_arr)
        y_float = y_arr.astype(np.float64)

        if self.tree_method in ("hist", "hist-pernode"):
            mapper = _BinMapper(self.n_bins)
            codes = mapper.fit_transform(X_arr)
            split_points = mapper.split_points_
        else:
            codes = split_points = None
        engine = None
        if self.tree_method == "hist":
            from repro.ml.hist_engine import LevelHistEngine

            # One engine per fit: the flat-code layout and per-level
            # histogram buffers persist across boosting rounds.
            engine = LevelHistEngine(
                codes=codes,
                split_points=split_points,
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
        # The builder-recorded leaf assignment replaces the margin-update
        # re-traversal of X: one leaf-weight gather per round,
        # bit-identical to tree.predict (builders partition on the same
        # `x <= threshold` predicate).  Subsampled rounds gather over the
        # sampled rows and re-traverse only the left-out rows, which have
        # no recorded leaf.  `_margin_via_gather` exists for the
        # equivalence regression test.
        use_gather = getattr(self, "_margin_via_gather", True)
        for _ in range(self.n_estimators):
            prob = stable_sigmoid(margin)
            grad = prob - y_float
            hess = prob * (1.0 - prob)
            if self.subsample < 1.0:
                n_rows = max(2, int(round(self.subsample * n)))
                rows = np.sort(rng.choice(n, size=n_rows, replace=False))
            else:
                rows = np.arange(n)
            if engine is not None:
                tree, leaf_of = engine.build(grad, hess, rows, rng)
            elif self.tree_method == "hist-pernode":
                tree, leaf_of = _HistTreeBuilder(
                    codes=codes,
                    split_points=split_points,
                    max_depth=self.max_depth,
                    min_child_weight=self.min_child_weight,
                    reg_lambda=self.reg_lambda,
                    gamma=self.gamma,
                    colsample=self.colsample,
                    rng=rng,
                ).build(grad, hess, rows)
            else:
                tree, leaf_of = _BoostTreeBuilder(
                    max_depth=self.max_depth,
                    min_child_weight=self.min_child_weight,
                    reg_lambda=self.reg_lambda,
                    gamma=self.gamma,
                    colsample=self.colsample,
                    rng=rng,
                ).build(X_arr, grad, hess, rows)
            if not use_gather:
                margin += self.learning_rate * tree.predict(X_arr)
            elif len(rows) == n:
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
        traversed simultaneously), bitwise identical to
        :meth:`decision_function_reference`.
        """
        X_arr = check_array(X)
        self._check_n_features(X_arr)
        return self._packed_ensemble().margins(X_arr)

    def decision_function_reference(self, X) -> np.ndarray:
        """Per-tree scoring loop, kept as the packed path's bit-identity
        reference (and for benchmarking the packed speedup)."""
        X_arr = check_array(X)
        self._check_n_features(X_arr)
        margin = np.full(X_arr.shape[0], self.base_margin_, dtype=np.float64)
        for tree in self.trees_:
            margin += self.learning_rate * tree.predict(X_arr)
        return margin

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
