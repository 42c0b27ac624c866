"""Detector stage 2: the binary classifier (plus the stage-1 rules).

The detector trains a binary classifier on extracted features (XGBoost
in the shipped system; any of the paper's six candidates can be
selected) and classifies every item that survives the rule filter.
Filtered items are reported normal.

The classifier zoo mirrors Table III; scale-sensitive models (SVM, MLP)
are automatically wrapped with a :class:`StandardScaler`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Sequence

import numpy as np

from repro.core.config import DetectorConfig, RuleConfig
from repro.core.rules import RuleFilter
from repro.ml import (
    AdaBoostClassifier,
    DecisionTreeClassifier,
    GaussianNB,
    GradientBoostingClassifier,
    LinearSVC,
    MLPClassifier,
    StandardScaler,
)

# One module-level factory per classifier, so a bound factory
# (``functools.partial(factory, seed)``) pickles into worker processes.


def _xgboost(seed: int) -> GradientBoostingClassifier:
    return GradientBoostingClassifier(
        n_estimators=120, learning_rate=0.2, max_depth=4, seed=seed
    )


def _svm(seed: int) -> LinearSVC:
    return LinearSVC(C=1.0, max_iter=200, seed=seed)


def _adaboost(seed: int) -> AdaBoostClassifier:
    return AdaBoostClassifier(n_estimators=80, max_depth=2)


def _neural_network(seed: int) -> MLPClassifier:
    return MLPClassifier(
        hidden_layer_sizes=(16,), max_epochs=30, learning_rate=1e-3, seed=seed
    )


def _decision_tree(seed: int) -> DecisionTreeClassifier:
    return DecisionTreeClassifier(max_depth=8, min_samples_leaf=5)


def _naive_bayes(seed: int) -> GaussianNB:
    return GaussianNB()


#: Factory per classifier name.  Hyperparameters are the defaults used
#: throughout the reproduction (see EXPERIMENTS.md for the Table III
#: sweep these produce).
CLASSIFIER_FACTORIES: dict[str, Callable[[int], object]] = {
    "xgboost": _xgboost,
    "svm": _svm,
    "adaboost": _adaboost,
    "neural_network": _neural_network,
    "decision_tree": _decision_tree,
    "naive_bayes": _naive_bayes,
}

#: Classifiers that need standardized inputs.
SCALED_CLASSIFIERS = frozenset({"svm", "neural_network"})


@dataclass
class DetectionReport:
    """Output of one detection run over a batch of items."""

    #: Hard fraud flag per input item (rule-filtered items are False).
    is_fraud: np.ndarray
    #: P(fraud) per input item (0.0 for rule-filtered items).
    fraud_probability: np.ndarray
    #: Which items reached the classifier.
    passed_filter: np.ndarray
    #: Per-rule filtering counts.
    filter_report: dict[str, int] = field(default_factory=dict)

    @property
    def n_reported(self) -> int:
        """Number of items flagged as fraud."""
        return int(self.is_fraud.sum())

    def reported_indices(self) -> np.ndarray:
        """Indices of flagged items, most suspicious first."""
        flagged = np.flatnonzero(self.is_fraud)
        return flagged[np.argsort(-self.fraud_probability[flagged])]


class Detector:
    """Two-stage fraud detector: rule filter -> binary classifier."""

    def __init__(
        self,
        config: DetectorConfig | None = None,
        rules: RuleConfig | None = None,
    ) -> None:
        self.config = config or DetectorConfig()
        if self.config.classifier not in CLASSIFIER_FACTORIES:
            raise ValueError(
                f"unknown classifier {self.config.classifier!r}; choose from "
                f"{sorted(CLASSIFIER_FACTORIES)}"
            )
        if not 0.0 < self.config.threshold < 1.0:
            raise ValueError(
                f"threshold must be in (0, 1), got {self.config.threshold}"
            )
        self.rule_filter = RuleFilter(rules)
        self._scaler: StandardScaler | None = None
        self._model: object | None = None

    # -- training -----------------------------------------------------------

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "Detector":
        """Train the stage-2 classifier on a labeled feature matrix.

        Training data is the labeled ground-truth set (the paper's D0);
        the rule filter needs no training.
        """
        X = np.asarray(features, dtype=np.float64)
        y = np.asarray(labels)
        name = self.config.classifier
        self._model = CLASSIFIER_FACTORIES[name](self.config.seed)
        if name in SCALED_CLASSIFIERS:
            self._scaler = StandardScaler().fit(X)
            X = self._scaler.transform(X)
        else:
            self._scaler = None
        self._model.fit(X, y)
        return self

    @property
    def model(self):
        """The trained stage-2 classifier; raises when unfitted."""
        if self._model is None:
            raise RuntimeError("Detector is not fitted; call fit() first")
        return self._model

    # -- inference -----------------------------------------------------------

    def predict_proba(
        self,
        features: np.ndarray,
        chunk_size: int | None = None,
    ) -> np.ndarray:
        """Stage-2 P(fraud) for already-filtered feature rows.

        ``chunk_size`` scores the matrix in fixed row chunks (bounding
        peak memory at D1/E-platform scale).  Rows are scored
        independently, so the tree-based classifiers return bitwise
        identical probabilities for any chunking.
        """
        X = np.asarray(features, dtype=np.float64)
        return self._predict_proba_converted(X, chunk_size)

    def _predict_proba_converted(
        self, X: np.ndarray, chunk_size: int | None = None
    ) -> np.ndarray:
        """Scoring core for rows already converted to float64 (the
        detect path converts exactly once and comes straight here)."""
        n = len(X)
        if chunk_size is None or chunk_size >= n:
            return self._score_rows(X)
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        return np.concatenate(
            [
                self._score_rows(X[start : start + chunk_size])
                for start in range(0, n, chunk_size)
            ]
        )

    def _score_rows(self, X: np.ndarray) -> np.ndarray:
        """Scale (if needed) and score one chunk of converted rows."""
        if self._scaler is not None:
            X = self._scaler.transform(X)
        return self.model.predict_proba(X)[:, 1]

    def packed_scoring_stats(self) -> dict[str, int]:
        """Packed-arena activity counters (zeros when the classifier has
        no packed path or has not scored yet); surfaced in the serving
        layer's ``/stats`` so deployments can confirm the packed
        predictor is engaged."""
        packed = getattr(self._model, "_packed", None)
        if packed is None:
            return {"packed_predict_calls": 0, "packed_rows_scored": 0}
        return {
            "packed_predict_calls": packed.n_calls,
            "packed_rows_scored": packed.n_rows,
        }

    def detect(
        self,
        items: Sequence,
        feature_matrix: np.ndarray,
        chunk_size: int | None = None,
    ) -> DetectionReport:
        """Run both stages over *items* with their feature rows.

        ``items`` must expose ``sales_volume`` and ``comment_texts``
        (both :class:`~repro.ecommerce.entities.Item` and
        :class:`~repro.collector.records.CrawledItem` do).
        ``chunk_size`` chunks stage-2 batch scoring (see
        :meth:`predict_proba`).
        """
        # Convert once; the filtered rows flow to the classifier without
        # a second asarray pass.
        features = np.asarray(feature_matrix, dtype=np.float64)
        passed, filter_report = self.rule_filter.evaluate(items, features)
        proba = np.zeros(len(items))
        if passed.any():
            proba[passed] = self._predict_proba_converted(
                features[passed], chunk_size
            )
        flagged = proba >= self.config.threshold
        return DetectionReport(
            is_fraud=flagged,
            fraud_probability=proba,
            passed_filter=passed,
            filter_report=filter_report,
        )

    # -- introspection -----------------------------------------------------

    def feature_importances(self) -> np.ndarray | None:
        """Split-count importances when the classifier provides them."""
        model = self.model
        if isinstance(model, GradientBoostingClassifier):
            return model.feature_importances("weight")
        if isinstance(model, DecisionTreeClassifier):
            return model.split_counts().astype(np.float64)
        return None
