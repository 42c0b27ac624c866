"""The CATS system facade.

Ties the four components together behind the workflow of the paper's
Fig. 6: train the semantic analyzer once on a large comment corpus,
pre-train the detector on a labeled dataset (D0), then detect frauds on
any platform's public data -- including platforms the detector was never
trained on, which is the paper's cross-platform claim.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import partial

import numpy as np

from repro.core.analyzer import SemanticAnalyzer
from repro.core.config import CATSConfig
from repro.core.detector import DetectionReport, Detector
from repro.core.features import FeatureExtractor


class CATS:
    """Cross-platform AnTi-fraud System.

    Parameters
    ----------
    analyzer:
        A trained :class:`SemanticAnalyzer` (see
        :meth:`SemanticAnalyzer.train`).
    config:
        Full system configuration; the detector settings select the
        stage-2 classifier.
    """

    def __init__(
        self,
        analyzer: SemanticAnalyzer,
        config: CATSConfig | None = None,
    ) -> None:
        self.config = config or CATSConfig()
        self.analyzer = analyzer
        self.feature_extractor = FeatureExtractor(analyzer)
        self.detector = Detector(self.config.detector, self.config.rules)
        #: Provenance of a loaded archive (path, content/analyzer
        #: hashes, feature schema); set by
        #: :func:`repro.core.persistence.load_cats`, ``None`` for
        #: systems trained in-process.
        self.archive_info: dict | None = None

    # -- training -----------------------------------------------------------

    def fit(self, items: Sequence, labels: Sequence[int]) -> "CATS":
        """Pre-train the detector on labeled *items* (the D0 role).

        ``items`` expose ``comment_texts``; *labels* are 1 = fraud.
        """
        if len(items) != len(labels):
            raise ValueError("items and labels must have equal length")
        features = self.feature_extractor.extract_items(items)
        self.detector.fit(features, np.asarray(labels))
        return self

    def fit_features(
        self, features: np.ndarray, labels: Sequence[int]
    ) -> "CATS":
        """Pre-train the detector on an existing feature matrix."""
        self.detector.fit(features, np.asarray(labels))
        return self

    # -- detection -----------------------------------------------------------

    def extract_features(self, items: Sequence) -> np.ndarray:
        """Feature matrix for *items* (exposes the extractor).

        The batch's comments are analyzed on the executor's workers
        (see :meth:`FeatureExtractor.extract_many`); rows are identical
        to a serial run.
        """
        return self.feature_extractor.extract_items(items)

    def detect(
        self, items: Sequence, *, chunk_size: int | None = None
    ) -> DetectionReport:
        """Detect fraud items among *items* on any platform.

        ``chunk_size`` chunks stage-2 batch scoring (see
        :meth:`Detector.predict_proba`).
        """
        features = self.feature_extractor.extract_items(items)
        return self.detector.detect(items, features, chunk_size=chunk_size)

    def detect_with_features(
        self,
        items: Sequence,
        features: np.ndarray,
        chunk_size: int | None = None,
    ) -> DetectionReport:
        """Detect when features were already extracted (avoids rework)."""
        return self.detector.detect(items, features, chunk_size=chunk_size)

    # -- model selection ------------------------------------------------------

    def cross_validate_detector(
        self,
        features: np.ndarray,
        labels: Sequence[int],
        n_splits: int = 5,
    ) -> dict[str, float]:
        """K-fold CV of the configured stage-2 classifier on a feature
        matrix (the paper's Table III protocol for one candidate).

        The folds are fit concurrently on the executor's workers (see
        :func:`repro.ml.model_selection.cross_validate`); the metric
        dict is bitwise identical for every worker count.
        """
        from repro.core.detector import (
            CLASSIFIER_FACTORIES,
            SCALED_CLASSIFIERS,
        )
        from repro.ml import StandardScaler
        from repro.ml.model_selection import cross_validate

        X = np.asarray(features, dtype=np.float64)
        name = self.config.detector.classifier
        if name in SCALED_CLASSIFIERS:
            X = StandardScaler().fit(X).transform(X)
        # A partial of a module-level factory pickles, so the folds
        # reach the process pool.
        factory = partial(
            CLASSIFIER_FACTORIES[name], self.config.detector.seed
        )
        return cross_validate(
            factory, X, np.asarray(labels), n_splits=n_splits
        )

    # -- introspection --------------------------------------------------------

    def feature_importances(self) -> np.ndarray | None:
        """Stage-2 feature importances when available (Fig. 7)."""
        return self.detector.feature_importances()
