"""CART decision tree classifier.

One of the six Table III candidates, and the weak-learner substrate for
:mod:`repro.ml.adaboost`.  The implementation is a standard binary CART:
greedy axis-aligned splits chosen by weighted gini impurity decrease,
with the usual pre-pruning knobs (``max_depth``, ``min_samples_split``,
``min_samples_leaf``, ``min_impurity_decrease``).  Sample weights are
supported throughout because AdaBoost reweights examples every round.

The tree is stored in flat parallel arrays (children / feature /
threshold / value) rather than node objects, which keeps prediction a
tight loop and makes the structure trivial to inspect in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ml.base import BaseClassifier, check_X_y, check_array

#: Sentinel stored in ``feature`` for leaf nodes.
_LEAF = -1


@dataclass
class _TreeBuilder:
    """Accumulates nodes while the tree is grown recursively."""

    children_left: list[int] = field(default_factory=list)
    children_right: list[int] = field(default_factory=list)
    feature: list[int] = field(default_factory=list)
    threshold: list[float] = field(default_factory=list)
    value: list[float] = field(default_factory=list)  # weighted P(class 1)
    n_node_samples: list[int] = field(default_factory=list)

    def add_node(self, prob_pos: float, n_samples: int) -> int:
        """Append a new (initially leaf) node; return its index."""
        node_id = len(self.feature)
        self.children_left.append(_LEAF)
        self.children_right.append(_LEAF)
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.value.append(prob_pos)
        self.n_node_samples.append(n_samples)
        return node_id

    def make_split(
        self, node_id: int, feature: int, threshold: float, left: int, right: int
    ) -> None:
        """Turn *node_id* into an internal node."""
        self.feature[node_id] = feature
        self.threshold[node_id] = threshold
        self.children_left[node_id] = left
        self.children_right[node_id] = right


def _weighted_gini(pos_weight: float, total_weight: float) -> float:
    """Gini impurity of a node with given positive/total weight."""
    if total_weight <= 0.0:
        return 0.0
    p = pos_weight / total_weight
    return 2.0 * p * (1.0 - p)


class DecisionTreeClassifier(BaseClassifier):
    """Binary CART classifier with gini splits.

    Parameters
    ----------
    max_depth:
        Maximum tree depth; ``None`` grows until pure / exhausted.
    min_samples_split:
        Minimum samples needed to consider splitting a node.
    min_samples_leaf:
        Minimum samples each child must retain.
    min_impurity_decrease:
        Minimum weighted impurity decrease for a split to be kept.
    """

    def __init__(
        self,
        max_depth: int | None = None,
        min_samples_split: int = 2,
        min_samples_leaf: int = 1,
        min_impurity_decrease: float = 0.0,
    ) -> None:
        if max_depth is not None and max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if min_samples_split < 2:
            raise ValueError(
                f"min_samples_split must be >= 2, got {min_samples_split}"
            )
        if min_samples_leaf < 1:
            raise ValueError(
                f"min_samples_leaf must be >= 1, got {min_samples_leaf}"
            )
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.min_samples_leaf = min_samples_leaf
        self.min_impurity_decrease = min_impurity_decrease

    # -- training ------------------------------------------------------

    def fit(
        self, X, y, sample_weight: np.ndarray | None = None
    ) -> "DecisionTreeClassifier":
        """Grow the tree on ``(X, y)`` with optional *sample_weight*."""
        X_arr, y_arr = check_X_y(X, y)
        if sample_weight is None:
            weights = np.ones(len(y_arr), dtype=np.float64)
        else:
            weights = np.asarray(sample_weight, dtype=np.float64)
            if weights.shape != y_arr.shape:
                raise ValueError("sample_weight shape must match y")
            if np.any(weights < 0):
                raise ValueError("sample_weight must be non-negative")
        self.n_features_in_ = X_arr.shape[1]
        self._builder = _TreeBuilder()
        self._total_weight = float(weights.sum())
        # Each column is argsorted once here; nodes recover their own
        # sorted order by filtering this root order with a membership
        # mask (stable ties, so identical to a per-node mergesort).
        self._sorted_rows = [
            np.argsort(X_arr[:, j], kind="mergesort")
            for j in range(X_arr.shape[1])
        ]
        self._grow(X_arr, y_arr, weights, np.arange(len(y_arr)), depth=0)
        del self._sorted_rows
        # Freeze into arrays for fast prediction.
        b = self._builder
        self.children_left_ = np.array(b.children_left, dtype=np.int64)
        self.children_right_ = np.array(b.children_right, dtype=np.int64)
        self.feature_ = np.array(b.feature, dtype=np.int64)
        self.threshold_ = np.array(b.threshold, dtype=np.float64)
        self.value_ = np.array(b.value, dtype=np.float64)
        self.n_node_samples_ = np.array(b.n_node_samples, dtype=np.int64)
        self._packed = None
        return self

    def _grow(
        self,
        X: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        idx: np.ndarray,
        depth: int,
    ) -> int:
        node_w = w[idx]
        total_weight = float(node_w.sum())
        pos_weight = float(node_w[y[idx] == 1].sum())
        prob_pos = pos_weight / total_weight if total_weight > 0 else 0.5
        node_id = self._builder.add_node(prob_pos, len(idx))

        if (
            len(idx) < self.min_samples_split
            or (self.max_depth is not None and depth >= self.max_depth)
            or prob_pos in (0.0, 1.0)
        ):
            return node_id

        split = self._best_split(X, y, w, idx, pos_weight, total_weight)
        if split is None:
            return node_id
        feature, threshold, gain = split
        # Zero-gain splits are allowed (they can enable useful splits
        # deeper down, e.g. XOR-structured data), unless the caller set a
        # positive min_impurity_decrease.
        if gain < self.min_impurity_decrease:
            return node_id

        mask = X[idx, feature] <= threshold
        left_idx = idx[mask]
        right_idx = idx[~mask]
        left = self._grow(X, y, w, left_idx, depth + 1)
        right = self._grow(X, y, w, right_idx, depth + 1)
        self._builder.make_split(node_id, feature, threshold, left, right)
        return node_id

    def _best_split(
        self,
        X: np.ndarray,
        y: np.ndarray,
        w: np.ndarray,
        idx: np.ndarray,
        pos_weight: float,
        total_weight: float,
    ) -> tuple[int, float, float] | None:
        """Greedy best (feature, threshold, impurity-decrease) or None."""
        parent_impurity = _weighted_gini(pos_weight, total_weight)
        best: tuple[int, float, float] | None = None
        best_gain = -np.inf
        in_node = np.zeros(X.shape[0], dtype=bool)
        in_node[idx] = True
        for feature in range(X.shape[1]):
            root_sorted = self._sorted_rows[feature]
            node_sorted = root_sorted[in_node[root_sorted]]
            col_sorted = X[node_sorted, feature]
            w_sorted = w[node_sorted]
            wy_sorted = w_sorted * y[node_sorted].astype(np.float64)
            w_cum = np.cumsum(w_sorted)
            wy_cum = np.cumsum(wy_sorted)
            n = len(idx)
            # Candidate cut after position i (between i and i+1), valid
            # only where consecutive values differ.
            valid = np.flatnonzero(col_sorted[:-1] < col_sorted[1:])
            if len(valid) == 0:
                continue
            # Enforce min_samples_leaf on both sides.
            valid = valid[
                (valid + 1 >= self.min_samples_leaf)
                & (n - valid - 1 >= self.min_samples_leaf)
            ]
            if len(valid) == 0:
                continue
            left_w = w_cum[valid]
            left_pos = wy_cum[valid]
            right_w = total_weight - left_w
            right_pos = pos_weight - left_pos
            with np.errstate(divide="ignore", invalid="ignore"):
                left_p = np.where(left_w > 0, left_pos / left_w, 0.0)
                right_p = np.where(right_w > 0, right_pos / right_w, 0.0)
            left_gini = 2.0 * left_p * (1.0 - left_p)
            right_gini = 2.0 * right_p * (1.0 - right_p)
            weighted_child = (
                left_w * left_gini + right_w * right_gini
            ) / total_weight
            gains = (
                (parent_impurity - weighted_child)
                * total_weight
                / self._total_weight
            )
            best_local = int(np.argmax(gains))
            if gains[best_local] > best_gain:
                cut = valid[best_local]
                threshold = 0.5 * (col_sorted[cut] + col_sorted[cut + 1])
                best_gain = float(gains[best_local])
                best = (feature, float(threshold), best_gain)
        return best

    # -- prediction ------------------------------------------------------

    def _packed_ensemble(self):
        """Lazily built packed arena over the tree arrays (see
        :mod:`repro.ml.inference`); ``fit`` invalidates it."""
        packed = getattr(self, "_packed", None)
        if packed is None:
            from repro.ml.inference import PackedEnsemble

            packed = PackedEnsemble.from_tree(self)
            self._packed = packed
        return packed

    def predict_proba(self, X) -> np.ndarray:
        """Return ``(n, 2)`` class probabilities from leaf frequencies.

        Scored through the packed arena, bitwise identical to a masked
        per-level traversal of the tree arrays.
        """
        X_arr = check_array(X)
        self._check_n_features(X_arr)
        prob_pos = self._packed_ensemble().margins(X_arr)
        return np.column_stack([1.0 - prob_pos, prob_pos])

    # -- introspection -----------------------------------------------------

    @property
    def node_count(self) -> int:
        """Total number of nodes (internal + leaves)."""
        self._check_fitted()
        return len(self.feature_)

    @property
    def depth(self) -> int:
        """Actual depth of the grown tree."""
        self._check_fitted()
        depths = np.zeros(self.node_count, dtype=np.int64)
        max_depth = 0
        for node in range(self.node_count):
            if self.feature_[node] != _LEAF:
                for child in (
                    self.children_left_[node],
                    self.children_right_[node],
                ):
                    depths[child] = depths[node] + 1
                    max_depth = max(max_depth, int(depths[child]))
        return max_depth

    def split_counts(self) -> np.ndarray:
        """Per-feature count of internal nodes splitting on that feature.

        This is the "number of times a feature is split on" importance
        measure the paper uses for its Fig. 7.
        """
        self._check_fitted()
        internal = self.feature_[self.feature_ != _LEAF]
        return np.bincount(internal, minlength=self.n_features_in_)
