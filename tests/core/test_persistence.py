"""Tests for repro.core.persistence."""

import json

import numpy as np
import pytest

from repro.core.config import CATSConfig, DetectorConfig
from repro.core.persistence import (
    PersistenceError,
    load_cats,
    save_cats,
)
from repro.core.system import CATS


@pytest.fixture(scope="module")
def archive(tmp_path_factory, trained_cats):
    path = tmp_path_factory.mktemp("cats_archive")
    save_cats(trained_cats, path)
    return path


class TestSave:
    def test_files_written(self, archive):
        for name in (
            "manifest.json",
            "segmenter.json",
            "word2vec.npz",
            "word2vec_vocab.json",
            "sentiment.npz",
            "sentiment_vocab.json",
            "lexicon.json",
            "detector.json",
            "detector.npz",
        ):
            assert (archive / name).exists(), name

    def test_manifest_version(self, archive):
        manifest = json.loads((archive / "manifest.json").read_text())
        assert manifest["format_version"] == 1
        assert "config" in manifest

    def test_unfitted_detector_rejected(self, analyzer, tmp_path):
        cats = CATS(analyzer)
        with pytest.raises((PersistenceError, RuntimeError)):
            save_cats(cats, tmp_path / "x")

    def test_unsupported_classifier_rejected(
        self, analyzer, d0_small, tmp_path
    ):
        config = CATSConfig(detector=DetectorConfig(classifier="naive_bayes"))
        cats = CATS(analyzer, config=config)
        cats.fit(d0_small.items[:100], d0_small.labels[:100])
        with pytest.raises(PersistenceError):
            save_cats(cats, tmp_path / "x")


class TestLoad:
    def test_roundtrip_predictions_identical(
        self, archive, trained_cats, d0_small
    ):
        loaded = load_cats(archive)
        items = d0_small.items[:40]
        original = trained_cats.detect(items)
        restored = loaded.detect(items)
        np.testing.assert_array_equal(original.is_fraud, restored.is_fraud)
        np.testing.assert_allclose(
            original.fraud_probability, restored.fraud_probability
        )

    def test_roundtrip_lexicon(self, archive, trained_cats):
        loaded = load_cats(archive)
        assert loaded.analyzer.lexicon.positive == (
            trained_cats.analyzer.lexicon.positive
        )
        assert loaded.analyzer.lexicon.negative == (
            trained_cats.analyzer.lexicon.negative
        )

    def test_roundtrip_sentiment_scores(self, archive, trained_cats):
        loaded = load_cats(archive)
        text = "haopingzan!"
        assert loaded.analyzer.comment_sentiment(text) == pytest.approx(
            trained_cats.analyzer.comment_sentiment(text)
        )

    def test_roundtrip_word2vec_neighbors(self, archive, trained_cats):
        loaded = load_cats(archive)
        seed = next(iter(trained_cats.analyzer.lexicon.positive))
        if seed in trained_cats.analyzer.word2vec:
            a = trained_cats.analyzer.word2vec.most_similar(seed, k=5)
            b = loaded.analyzer.word2vec.most_similar(seed, k=5)
            assert [w for w, __ in a] == [w for w, __ in b]

    def test_roundtrip_config(self, archive, trained_cats):
        loaded = load_cats(archive)
        assert loaded.config == trained_cats.config

    def test_missing_archive(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_cats(tmp_path / "nothing")

    def test_bad_version_rejected(self, archive, tmp_path):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(archive, broken)
        manifest = json.loads((broken / "manifest.json").read_text())
        manifest["format_version"] = 99
        (broken / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError):
            load_cats(broken)

    def test_corrupt_arrays_detected(self, archive, tmp_path):
        import shutil

        broken = tmp_path / "corrupt"
        shutil.copytree(archive, broken)
        vocab = json.loads((broken / "word2vec_vocab.json").read_text())
        vocab["words"] = vocab["words"][:3]
        vocab["counts"] = vocab["counts"][:3]
        (broken / "word2vec_vocab.json").write_text(json.dumps(vocab))
        with pytest.raises(PersistenceError):
            load_cats(broken)


class TestSvmRoundtrip:
    def test_svm_detector_roundtrip(self, analyzer, d0_small, tmp_path):
        config = CATSConfig(detector=DetectorConfig(classifier="svm"))
        cats = CATS(analyzer, config=config)
        cats.fit(d0_small.items[:200], d0_small.labels[:200])
        save_cats(cats, tmp_path / "svm")
        loaded = load_cats(tmp_path / "svm")
        items = d0_small.items[:20]
        np.testing.assert_allclose(
            cats.detect(items).fraud_probability,
            loaded.detect(items).fraud_probability,
        )


class TestArchiveIdentity:
    def test_manifest_carries_fingerprint_and_schema(self, archive):
        from repro.core.features import FEATURE_NAMES

        manifest = json.loads((archive / "manifest.json").read_text())
        assert len(manifest["content_hash"]) == 64
        assert len(manifest["analyzer_hash"]) == 64
        assert manifest["feature_schema"] == list(FEATURE_NAMES)

    def test_load_attaches_archive_info(self, archive):
        manifest = json.loads((archive / "manifest.json").read_text())
        loaded = load_cats(archive)
        assert loaded.archive_info["content_hash"] == (
            manifest["content_hash"]
        )
        assert loaded.archive_info["analyzer_hash"] == (
            manifest["analyzer_hash"]
        )
        assert loaded.archive_info["path"] == str(archive)

    def test_fingerprint_deterministic(self, archive):
        from repro.core.persistence import archive_fingerprint

        assert archive_fingerprint(archive) == archive_fingerprint(archive)

    def test_tampered_component_rejected(self, archive, tmp_path):
        import shutil

        broken = tmp_path / "tampered"
        shutil.copytree(archive, broken)
        lexicon = broken / "lexicon.json"
        lexicon.write_text(lexicon.read_text() + " ")
        with pytest.raises(PersistenceError, match="content hash"):
            load_cats(broken)

    def test_verify_hash_opt_out(self, archive, tmp_path):
        import shutil

        broken = tmp_path / "tampered_ok"
        shutil.copytree(archive, broken)
        lexicon = broken / "lexicon.json"
        lexicon.write_text(lexicon.read_text() + " ")
        assert load_cats(broken, verify_hash=False) is not None

    def test_foreign_feature_schema_rejected(self, archive, tmp_path):
        import shutil

        broken = tmp_path / "schema"
        shutil.copytree(archive, broken)
        manifest = json.loads((broken / "manifest.json").read_text())
        manifest["feature_schema"] = ["somethingElse"] + (
            manifest["feature_schema"][1:]
        )
        (broken / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match="feature schema"):
            load_cats(broken)

    def test_legacy_manifest_loads_unchecked(self, archive, tmp_path):
        import shutil

        legacy = tmp_path / "legacy"
        shutil.copytree(archive, legacy)
        manifest = json.loads((legacy / "manifest.json").read_text())
        del manifest["content_hash"]
        del manifest["feature_schema"]
        (legacy / "manifest.json").write_text(json.dumps(manifest))
        loaded = load_cats(legacy)
        assert loaded.archive_info["content_hash"] is None

    def test_retired_tree_workers_key_ignored(
        self, archive, trained_cats, d0_small, tmp_path
    ):
        """Archives and registry versions written while the GBDT engine
        had tree threads carry ``tree_workers`` in their detector
        config; they still load, with the same detector."""
        import shutil

        old = tmp_path / "old"
        shutil.copytree(archive, old)
        manifest = json.loads((old / "manifest.json").read_text())
        manifest["config"]["detector"]["tree_workers"] = None
        (old / "manifest.json").write_text(json.dumps(manifest))
        loaded = load_cats(old)
        assert loaded.config == trained_cats.config
        X = trained_cats.extract_features(d0_small.items[:40])
        np.testing.assert_array_equal(
            loaded.detector.predict_proba(X),
            trained_cats.detector.predict_proba(X),
        )

    def test_analyzer_hash_stable_across_detector_retrain(
        self, archive, analyzer, small_config, d0_small, tmp_path
    ):
        """Retraining only the detector keeps the analyzer hash (the
        shadow scorer keys feature-extractor sharing on it)."""
        retrained = CATS(analyzer, config=small_config)
        half = len(d0_small.items) // 2
        retrained.fit(d0_small.items[:half], d0_small.labels[:half])
        save_cats(retrained, tmp_path / "retrained")
        first = json.loads((archive / "manifest.json").read_text())
        second = json.loads(
            (tmp_path / "retrained" / "manifest.json").read_text()
        )
        assert first["analyzer_hash"] == second["analyzer_hash"]
        assert first["content_hash"] != second["content_hash"]
