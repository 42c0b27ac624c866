"""Reference GBDT tree builders and the boosting loop that drives them.

Production :class:`~repro.ml.gbdt.GradientBoostingClassifier` grows
every tree with :class:`~repro.ml.hist_engine.LevelHistEngine`.  The
parity suites and ``benchmarks/bench_training.py`` compare it against
two older builders kept here:

* :class:`_HistTreeBuilder` -- the recursive per-node histogram
  builder.  The engine must reproduce its trees byte for byte.
* :class:`_BoostTreeBuilder` -- exact greedy split finding over sorted
  columns.  With ``n_bins >= n_distinct`` (integer grids) every exact
  cut is a bin boundary, so hist and exact partition the training rows
  alike except where two candidate splits tie in exact arithmetic and
  the two summation orders break the tie differently.  A parity test
  proves such a tie in exact arithmetic with :func:`first_proven_tie`.

:func:`fit_reference` boosts with any of the three builders.  It draws
from the generator exactly like ``GradientBoostingClassifier.fit`` and
updates margins by re-traversing each tree, the update the production
leaf gather must reproduce.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from repro.ml.base import as_rng, check_array, check_X_y, stable_sigmoid
from repro.ml.gbdt import (
    _LEAF,
    GradientBoostingClassifier,
    _BinMapper,
    _BoostTree,
    _sample_columns,
)
from repro.ml.hist_engine import LevelHistEngine

BUILDERS = ("engine", "pernode", "exact")


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
        positions are zero).
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


def fit_reference(
    X, y, builder: str = "engine", **params
) -> GradientBoostingClassifier:
    """Boost with one of :data:`BUILDERS`; margins update by re-traversal.

    *params* are ``GradientBoostingClassifier``'s constructor
    arguments.  The generator is consumed exactly as
    ``GradientBoostingClassifier.fit`` consumes it, but each round adds
    ``tree.predict(X)`` to the margin instead of gathering the
    builder's recorded leaf assignment.  Returns a classifier with
    ``n_features_in_``, ``base_margin_`` and ``trees_`` set the way a
    restored archive sets them, so ``predict``, ``predict_proba`` and
    packed scoring work on it.  An exact fit also carries ``rounds_``:
    each round's ``(grad, hess, rows)``, which :func:`first_proven_tie`
    needs to recompute split gains exactly.
    """
    if builder not in BUILDERS:
        raise ValueError(f"builder must be one of {BUILDERS}, got {builder!r}")
    model = GradientBoostingClassifier(**params)
    X_arr, y_arr = check_X_y(X, y)
    rng = as_rng(model._seed)
    n = len(y_arr)
    y_float = y_arr.astype(np.float64)
    tree_params = dict(
        max_depth=model.max_depth,
        min_child_weight=model.min_child_weight,
        reg_lambda=model.reg_lambda,
        gamma=model.gamma,
        colsample=model.colsample,
    )
    if builder != "exact":
        mapper = _BinMapper(model.n_bins)
        codes = mapper.fit_transform(X_arr)
        split_points = mapper.split_points_
    if builder == "engine":
        engine = LevelHistEngine(
            codes=codes, split_points=split_points, **tree_params
        )
    pos_rate = float(np.clip(y_float.mean(), 1e-6, 1.0 - 1e-6))
    base_margin = float(np.log(pos_rate / (1.0 - pos_rate)))
    margin = np.full(n, base_margin, dtype=np.float64)
    trees: list[_BoostTree] = []
    rounds = []
    for _ in range(model.n_estimators):
        prob = stable_sigmoid(margin)
        grad = prob - y_float
        hess = prob * (1.0 - prob)
        if model.subsample < 1.0:
            n_rows = max(2, int(round(model.subsample * n)))
            rows = np.sort(rng.choice(n, size=n_rows, replace=False))
        else:
            rows = np.arange(n)
        if builder == "engine":
            tree, _ = engine.build(grad, hess, rows, rng)
        elif builder == "pernode":
            tree, _ = _HistTreeBuilder(
                codes=codes, split_points=split_points, rng=rng, **tree_params
            ).build(grad, hess, rows)
        else:
            tree, _ = _BoostTreeBuilder(rng=rng, **tree_params).build(
                X_arr, grad, hess, rows
            )
            rounds.append((grad, hess, rows))
        margin += model.learning_rate * tree.predict(X_arr)
        trees.append(tree)
    model.n_features_in_ = X_arr.shape[1]
    model.base_margin_ = base_margin
    model.trees_ = trees
    if builder == "exact":
        model.rounds_ = rounds
    return model


def decision_function_reference(model, X) -> np.ndarray:
    """Per-tree scoring loop, kept as the packed path's bit-identity
    reference (and for benchmarking the packed speedup)."""
    X_arr = check_array(X)
    model._check_n_features(X_arr)
    margin = np.full(X_arr.shape[0], model.base_margin_, dtype=np.float64)
    for tree in model.trees_:
        margin += model.learning_rate * tree.predict(X_arr)
    return margin


def first_proven_tie(exact, other, X) -> tuple[int, int] | None:
    """Compare an exact fit with another fit of the same data and seed.

    Trees are walked in fit order, nodes in preorder.  Two nodes match
    when they carry the same weight bit for bit and are both leaves, or
    both split on the same feature and send the same training rows
    left.  At the first split the fits make differently, the two
    candidate splits must have the same gain in exact rational
    arithmetic over that round's float64 gradients: a tie the two
    summation orders broke differently.  Returns that ``(tree, node)``
    and compares nothing after it, since every later node depends on
    the tie-break.  Returns ``None`` when all nodes match.  Any other
    difference raises ``AssertionError``.
    """
    X = check_array(X)
    assert len(exact.trees_) == len(other.trees_)
    for t, (tree_e, tree_o) in enumerate(zip(exact.trees_, other.trees_)):
        node = _first_tie_in_tree(
            exact, tree_e, tree_o, exact.rounds_[t], X, np.arange(len(X)), 0, 0
        )
        if node is not None:
            return t, node
    return None


def _first_tie_in_tree(
    exact, tree_e, tree_o, round_, X, rows, node_e, node_o
) -> int | None:
    """Preorder walk of one tree pair; see :func:`first_proven_tie`."""
    where = f"exact node {node_e}"
    assert tree_e.leaf_weight[node_e] == tree_o.leaf_weight[node_o], where
    fe, fo = int(tree_e.feature[node_e]), int(tree_o.feature[node_o])
    assert (fe == _LEAF) == (fo == _LEAF), f"{where}: leaf vs split"
    if fe == _LEAF:
        return None
    left_e = X[rows, fe] <= tree_e.threshold[node_e]
    left_o = X[rows, fo] <= tree_o.threshold[node_o]
    if fe != fo or not np.array_equal(left_e, left_o):
        grad, hess, sampled = round_
        grown = np.isin(rows, sampled)
        gain_e = _exact_gain(exact, grad, hess, rows[grown], left_e[grown])
        gain_o = _exact_gain(exact, grad, hess, rows[grown], left_o[grown])
        assert gain_e == gain_o, (
            f"{where}: feature {fe} gain {float(gain_e)!r} and feature "
            f"{fo} gain {float(gain_o)!r} differ in exact arithmetic"
        )
        return node_e
    for side, mask in (("children_left", left_e), ("children_right", ~left_e)):
        tie = _first_tie_in_tree(
            exact, tree_e, tree_o, round_, X, rows[mask],
            int(getattr(tree_e, side)[node_e]),
            int(getattr(tree_o, side)[node_o]),
        )
        if tie is not None:
            return tie
    return None


def _exact_gain(model, grad, hess, rows, left) -> Fraction:
    """Split gain of ``rows[left]`` against the other rows as an exact
    rational (every float64 is one)."""

    def total(values) -> Fraction:
        return sum(map(Fraction, values.tolist()), Fraction(0))

    lam = Fraction(model.reg_lambda)
    g_left, h_left = total(grad[rows[left]]), total(hess[rows[left]])
    g_right, h_right = total(grad[rows[~left]]), total(hess[rows[~left]])
    g_sum, h_sum = g_left + g_right, h_left + h_right
    return (
        g_left * g_left / (h_left + lam)
        + g_right * g_right / (h_right + lam)
        - g_sum * g_sum / (h_sum + lam)
    ) / 2 - Fraction(model.gamma)
