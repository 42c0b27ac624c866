"""AdaBoost over decision stumps.

The AdaBoost candidate from Table III.  This is discrete AdaBoost
(SAMME reduces to it for two classes): each round fits a weak CART tree
on the current sample weights, computes the weighted error ``err``, the
stage weight ``alpha = log((1 - err) / err)``, and multiplies the weights
of misclassified samples by ``exp(alpha)``.

``predict_proba`` uses the standard logistic link over the normalized
ensemble margin, giving scores comparable with the other classifiers.
"""

from __future__ import annotations

import numpy as np

from repro.ml.base import BaseClassifier, check_X_y, check_array
from repro.ml.tree import DecisionTreeClassifier

_EPS = 1e-10


class AdaBoostClassifier(BaseClassifier):
    """Discrete AdaBoost with shallow CART trees as weak learners.

    Parameters
    ----------
    n_estimators:
        Number of boosting rounds (weak learners).
    max_depth:
        Depth of each weak tree; 1 gives classic decision stumps.
    learning_rate:
        Shrinkage applied to each stage weight.
    """

    def __init__(
        self,
        n_estimators: int = 50,
        max_depth: int = 1,
        learning_rate: float = 1.0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError(f"n_estimators must be >= 1, got {n_estimators}")
        if learning_rate <= 0:
            raise ValueError(
                f"learning_rate must be positive, got {learning_rate}"
            )
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.learning_rate = learning_rate

    def fit(self, X, y) -> "AdaBoostClassifier":
        """Boost weak trees on ``(X, y)``."""
        X_arr, y_arr = check_X_y(X, y)
        self.n_features_in_ = X_arr.shape[1]
        self._packed = None
        n = len(y_arr)
        weights = np.full(n, 1.0 / n, dtype=np.float64)
        signs = np.where(y_arr == 1, 1.0, -1.0)

        self.estimators_: list[DecisionTreeClassifier] = []
        self.estimator_weights_: list[float] = []
        for _ in range(self.n_estimators):
            stump = DecisionTreeClassifier(max_depth=self.max_depth)
            stump.fit(X_arr, y_arr, sample_weight=weights)
            pred = stump.predict(X_arr)
            miss = pred != y_arr
            err = float(np.sum(weights[miss]))
            if err <= _EPS:
                # Perfect weak learner: give it a large but finite vote
                # and stop boosting.
                self.estimators_.append(stump)
                self.estimator_weights_.append(
                    self.learning_rate * 0.5 * np.log((1.0 - _EPS) / _EPS)
                )
                break
            if err >= 0.5:
                # Weak learner no better than chance; boosting has
                # converged (weights can no longer improve it).
                if not self.estimators_:
                    # Keep at least one estimator so predict() works.
                    self.estimators_.append(stump)
                    self.estimator_weights_.append(_EPS)
                break
            alpha = self.learning_rate * 0.5 * np.log((1.0 - err) / err)
            self.estimators_.append(stump)
            self.estimator_weights_.append(alpha)
            pred_signs = np.where(pred == 1, 1.0, -1.0)
            weights *= np.exp(-alpha * signs * pred_signs)
            weights /= weights.sum()
        return self

    def _packed_ensemble(self):
        """Lazily built packed arena over the weak learners (see
        :mod:`repro.ml.inference`); ``fit`` invalidates it."""
        packed = getattr(self, "_packed", None)
        if packed is None:
            from repro.ml.inference import PackedEnsemble

            packed = PackedEnsemble.from_adaboost(self)
            self._packed = packed
        return packed

    def decision_function(self, X) -> np.ndarray:
        """Weighted-vote margin in sign space, normalized to [-1, 1].

        All weak learners are traversed simultaneously through the
        packed arena (leaf values are the vote signs, per-tree scales
        the stage weights), bitwise identical to the per-stump voting
        loop.
        """
        X_arr = check_array(X)
        self._check_n_features(X_arr)
        total = self._packed_ensemble().margins(X_arr)
        weight_sum = float(sum(self.estimator_weights_))
        if weight_sum > 0:
            total /= weight_sum
        return total

    def predict(self, X) -> np.ndarray:
        """Hard labels from the weighted vote sign."""
        return (self.decision_function(X) >= 0.0).astype(np.int64)

    def predict_proba(self, X) -> np.ndarray:
        """Logistic link over the normalized margin."""
        margin = self.decision_function(X)
        prob_pos = 1.0 / (1.0 + np.exp(-4.0 * margin))
        return np.column_stack([1.0 - prob_pos, prob_pos])

    @property
    def n_rounds_(self) -> int:
        """Number of boosting rounds actually performed."""
        self._check_fitted()
        return len(self.estimators_)
