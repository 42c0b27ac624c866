"""Tests for repro.core.system (the CATS facade)."""

import numpy as np
import pytest

from repro.core.config import CATSConfig, DetectorConfig
from repro.core.system import CATS
from repro.ml.metrics import precision_recall_f1
from tests.pools import on_cpus


class TestFit:
    def test_fit_length_mismatch(self, analyzer, d0_small):
        cats = CATS(analyzer)
        with pytest.raises(ValueError):
            cats.fit(d0_small.items[:5], d0_small.labels[:4])

    def test_fit_features_path(self, analyzer, d0_small, trained_cats):
        X = trained_cats.extract_features(d0_small.items[:50])
        cats = CATS(analyzer)
        cats.fit_features(X, d0_small.labels[:50])
        report = cats.detect_with_features(d0_small.items[:50], X)
        assert report.is_fraud.shape == (50,)


class TestDetect:
    def test_detect_report_shape(self, trained_cats, d0_small):
        report = trained_cats.detect(d0_small.items[:30])
        assert report.is_fraud.shape == (30,)
        assert report.fraud_probability.shape == (30,)

    def test_detects_frauds_in_training_distribution(
        self, trained_cats, taobao_platform
    ):
        items = taobao_platform.items
        labels = np.array([1 if i.is_fraud else 0 for i in items])
        report = trained_cats.detect(items)
        precision, recall, __ = precision_recall_f1(
            labels, report.is_fraud.astype(int)
        )
        # Small-scale smoke thresholds; the benchmark harness measures
        # the paper-scale numbers.
        assert recall > 0.5
        assert precision > 0.3

    def test_cross_platform_detection(self, trained_cats, eplatform):
        """Trained on Taobao D0, applied to E-platform items directly."""
        from repro.analysis.adapters import crawled_view

        crawled = crawled_view(eplatform)
        report = trained_cats.detect(crawled)
        labels = np.array(
            [
                1 if eplatform.item_by_id(ci.item_id).is_fraud else 0
                for ci in crawled
            ]
        )
        if labels.sum() > 0:
            __, recall, __f = precision_recall_f1(
                labels, report.is_fraud.astype(int)
            )
            assert recall > 0.4

    def test_feature_importances_available(self, trained_cats):
        imp = trained_cats.feature_importances()
        assert imp is not None
        assert imp.sum() > 0

    def test_alternative_classifier_config(self, analyzer, d0_small):
        config = CATSConfig(
            detector=DetectorConfig(classifier="decision_tree")
        )
        cats = CATS(analyzer, config=config)
        cats.fit(d0_small.items[:200], d0_small.labels[:200])
        report = cats.detect(d0_small.items[:20])
        assert report.is_fraud.shape == (20,)


class TestCrossValidateDetector:
    def test_classifier_factories_pickle(self):
        import pickle
        from functools import partial

        from repro.core.detector import CLASSIFIER_FACTORIES

        for name, factory in CLASSIFIER_FACTORIES.items():
            bound = pickle.loads(pickle.dumps(partial(factory, 3)))
            assert type(bound()) is type(factory(3)), name

    def test_workers_reach_processes_and_match_serial(
        self, trained_cats, d0_small
    ):
        from repro import parallel

        features = trained_cats.extract_features(d0_small.items)
        with on_cpus(1):
            serial = trained_cats.cross_validate_detector(
                features, d0_small.labels, n_splits=3
            )
        before = parallel.STATS["fallbacks"]
        with on_cpus(2):  # on any host, the folds take the pool
            parallel_cv = trained_cats.cross_validate_detector(
                features, d0_small.labels, n_splits=3
            )
        assert parallel.STATS["fallbacks"] == before
        assert parallel_cv == serial
