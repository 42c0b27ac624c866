"""Save / load trained CATS systems.

The paper's deployment story is a *pre-trained* detector: train once on
Taobao's labeled D0, then run on any platform's public data.  That
requires the trained artifacts to survive a process boundary, so this
module serializes a complete :class:`~repro.core.system.CATS` instance
to a directory:

``manifest.json``
    format version, configuration, component inventory.
``segmenter.json``
    the segmentation dictionary (word -> weight).
``word2vec.npz`` / ``word2vec_vocab.json``
    embedding matrices and vocabulary counts.
``sentiment.npz`` / ``sentiment_vocab.json``
    naive-Bayes log-probability tables and vocabulary.
``lexicon.json``
    the expanded positive / negative sets.
``detector.json`` / ``detector.npz``
    the stage-2 classifier (GBDT trees flattened to arrays; other
    classifiers store their numpy parameters) plus the optional scaler.

Everything is plain JSON + ``.npz`` -- no pickling, so archives are
portable and inspectable, and loading untrusted files cannot execute
code.

All files are written atomically (temp file in the target directory,
fsync, then ``os.replace``), so a crash mid-save can leave stray
``*.tmp`` files but never a truncated archive member.  The
:func:`write_json_atomic` / :func:`write_npz_atomic` helpers are shared
with the serving layer's streaming-state checkpoints
(:mod:`repro.serving.checkpoint`), which follow the same
JSON-plus-npz, no-pickle conventions.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from collections.abc import Callable
from pathlib import Path
from typing import IO, Any

import numpy as np

from repro.core.config import (
    CATSConfig,
    DetectorConfig,
    LexiconConfig,
    RuleConfig,
    Word2VecConfig,
)
from repro.core.analyzer import SemanticAnalyzer
from repro.core.detector import Detector
from repro.core.features import FEATURE_NAMES
from repro.core.lexicon import SentimentLexicon
from repro.core.system import CATS
from repro.ml import (
    GradientBoostingClassifier,
    LinearSVC,
    StandardScaler,
)
from repro.ml.gbdt import _BoostTree
from repro.ml.naive_bayes import MultinomialNB
from repro.semantics.sentiment import SentimentModel
from repro.semantics.word2vec import Word2Vec
from repro.text.segmentation import ViterbiSegmenter
from repro.text.vocabulary import Vocabulary

FORMAT_VERSION = 1

#: Stage-2 classifiers that can be round-tripped.  Tree ensembles and
#: linear models cover the shipped detector ("xgboost") plus "svm"; the
#: remaining candidates are research-comparison models and are rejected
#: with a clear error instead of being silently mis-saved.
_SAVABLE_CLASSIFIERS = ("xgboost", "svm")


class PersistenceError(RuntimeError):
    """Raised when an archive is missing, corrupt, or unsupported."""


#: Analyzer-side component files, in content-hash order.  Two archives
#: with equal ``analyzer_hash`` produce bit-identical per-comment
#: analyses, so a shadow challenger sharing the hash can reuse the
#: champion's feature extractor (and its analysis cache).
_ANALYZER_FILES = (
    "segmenter.json",
    "word2vec.npz",
    "word2vec_vocab.json",
    "sentiment.npz",
    "sentiment_vocab.json",
    "lexicon.json",
)

#: Stage-2 classifier files.
_DETECTOR_FILES = ("detector.json", "detector.npz")

#: Every component file covered by the manifest ``content_hash``.
_COMPONENT_FILES = _ANALYZER_FILES + _DETECTOR_FILES


def _hash_files(directory: Path, names: tuple[str, ...]) -> str:
    """sha256 over (name, bytes) of *names* under *directory*, in order."""
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode("utf-8"))
        digest.update(b"\0")
        digest.update((directory / name).read_bytes())
    return digest.hexdigest()


def archive_fingerprint(directory: str | Path) -> dict[str, str]:
    """Recompute an archive's content hashes from its bytes on disk.

    Returns ``{"content_hash", "analyzer_hash"}``; raises
    :class:`PersistenceError` when a component file is missing.
    """
    path = Path(directory)
    try:
        return {
            "content_hash": _hash_files(path, _COMPONENT_FILES),
            "analyzer_hash": _hash_files(path, _ANALYZER_FILES),
        }
    except OSError as exc:
        raise PersistenceError(
            f"cannot fingerprint archive at {path}: {exc}"
        ) from exc


def read_manifest(directory: str | Path) -> dict[str, Any]:
    """The archive manifest under *directory* (identity without loading)."""
    manifest_path = Path(directory) / "manifest.json"
    if not manifest_path.exists():
        raise PersistenceError(f"no CATS archive at {directory}")
    return json.loads(manifest_path.read_text(encoding="utf-8"))


# -- atomic file primitives ----------------------------------------------


def _write_atomic(
    path: Path, mode: str, write: Callable[[IO[Any]], object]
) -> None:
    """Durably replace *path* with what *write* puts in a file handle.

    The one write-temp-then-rename sequence: *write* fills a temp file
    in *path*'s directory (opened with *mode*, text as UTF-8), which is
    flushed, fsynced and renamed over *path*.  A failure at any step
    removes the temp file and re-raises, so readers see the previous
    complete file or the new one, never a torn one.
    """
    fd, tmp_path = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        encoding = None if "b" in mode else "utf-8"
        with os.fdopen(fd, mode, encoding=encoding) as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def write_json_atomic(
    path: str | Path, obj: Any, *, indent: int | None = None
) -> None:
    """Durably write *obj* as JSON to *path* (write-temp-then-rename)."""
    payload = json.dumps(obj, ensure_ascii=False, indent=indent)
    _write_atomic(Path(path), "w", lambda handle: handle.write(payload))


def write_npz_atomic(path: str | Path, **arrays: np.ndarray) -> None:
    """Durably write *arrays* as a compressed npz to *path*."""
    _write_atomic(
        Path(path), "wb", lambda handle: np.savez_compressed(handle, **arrays)
    )


def write_npy_atomic(path: str | Path, array: np.ndarray) -> None:
    """Durably write a single *array* as an uncompressed ``.npy``.

    Unlike :func:`write_npz_atomic` the result can be opened with
    ``np.load(..., mmap_mode="r")``, which is what the columnar comment
    store (:mod:`repro.core.columnar`) needs for restart rehydration
    without paging whole columns into memory.
    """
    _write_atomic(
        Path(path),
        "wb",
        lambda handle: np.save(handle, array, allow_pickle=False),
    )


def write_jsonl_atomic(path: str | Path, rows: Any) -> None:
    """Durably write an iterable of JSON-serializable *rows* as JSONL.

    The whole file is staged in the target directory and renamed into
    place, so readers either see the previous complete file or the new
    complete file -- never a truncated line.  Shared by the collector's
    :class:`~repro.collector.storage.DatasetStore` and any other
    line-oriented dataset writers.
    """

    def write(handle: IO[str]) -> None:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False))
            handle.write("\n")

    _write_atomic(Path(path), "w", write)


def _config_to_dict(config: CATSConfig) -> dict[str, Any]:
    return {
        "lexicon": dataclasses.asdict(config.lexicon),
        "word2vec": dataclasses.asdict(config.word2vec),
        "rules": dataclasses.asdict(config.rules),
        "detector": dataclasses.asdict(config.detector),
    }


#: Detector config keys older archives may carry that no longer exist.
_RETIRED_DETECTOR_KEYS = frozenset({"tree_workers"})


def _config_from_dict(data: dict[str, Any]) -> CATSConfig:
    detector = {
        key: value
        for key, value in data["detector"].items()
        if key not in _RETIRED_DETECTOR_KEYS
    }
    return CATSConfig(
        lexicon=LexiconConfig(**data["lexicon"]),
        word2vec=Word2VecConfig(**data["word2vec"]),
        rules=RuleConfig(**data["rules"]),
        detector=DetectorConfig(**detector),
    )


# -- component writers ---------------------------------------------------


def _save_word2vec(model: Word2Vec, directory: Path) -> None:
    write_npz_atomic(
        directory / "word2vec.npz",
        input=model._input,
        output=model._output,
    )
    vocab = {
        "words": list(model.vocabulary),
        "counts": [model.vocabulary.count(w) for w in model.vocabulary],
        "dim": model.dim,
    }
    write_json_atomic(directory / "word2vec_vocab.json", vocab)


def _load_word2vec(directory: Path) -> Word2Vec:
    vocab_data = json.loads(
        (directory / "word2vec_vocab.json").read_text(encoding="utf-8")
    )
    arrays = np.load(directory / "word2vec.npz")
    model = Word2Vec(dim=int(vocab_data["dim"]))
    vocab = Vocabulary()
    for word, count in zip(vocab_data["words"], vocab_data["counts"]):
        vocab.add(word, int(count))
    model.vocabulary = vocab
    model._input = arrays["input"]
    model._output = arrays["output"]
    if model._input.shape != (len(vocab), model.dim):
        raise PersistenceError(
            "word2vec arrays do not match the stored vocabulary"
        )
    return model


def _save_sentiment(model: SentimentModel, directory: Path) -> None:
    nb = model._nb
    write_npz_atomic(
        directory / "sentiment.npz",
        feature_log_prob=nb.feature_log_prob_,
        class_log_prior=nb.class_log_prior_,
    )
    vocab = model.vocabulary
    data = {
        "words": list(vocab),
        "counts": [vocab.count(w) for w in vocab],
        "alpha": nb.alpha,
    }
    write_json_atomic(directory / "sentiment_vocab.json", data)


def _load_sentiment(directory: Path) -> SentimentModel:
    data = json.loads(
        (directory / "sentiment_vocab.json").read_text(encoding="utf-8")
    )
    arrays = np.load(directory / "sentiment.npz")
    model = SentimentModel(alpha=float(data["alpha"]))
    vocab = Vocabulary()
    for word, count in zip(data["words"], data["counts"]):
        vocab.add(word, int(count))
    model._vocabulary = vocab
    nb = MultinomialNB(alpha=float(data["alpha"]))
    nb.vocab_size = len(vocab)
    nb.feature_log_prob_ = arrays["feature_log_prob"]
    nb.class_log_prior_ = arrays["class_log_prior"]
    model._nb = nb
    if nb.feature_log_prob_.shape != (2, len(vocab)):
        raise PersistenceError(
            "sentiment arrays do not match the stored vocabulary"
        )
    return model


def _save_detector(detector: Detector, directory: Path) -> None:
    name = detector.config.classifier
    if name not in _SAVABLE_CLASSIFIERS:
        raise PersistenceError(
            f"classifier {name!r} cannot be serialized; ship one of "
            f"{_SAVABLE_CLASSIFIERS}"
        )
    model = detector.model
    arrays: dict[str, np.ndarray] = {}
    meta: dict[str, Any] = {"classifier": name}
    if isinstance(model, GradientBoostingClassifier):
        meta["n_trees"] = len(model.trees_)
        meta["base_margin"] = model.base_margin_
        meta["learning_rate"] = model.learning_rate
        meta["n_features"] = model.n_features_in_
        for i, tree in enumerate(model.trees_):
            arrays[f"tree{i}_children_left"] = tree.children_left
            arrays[f"tree{i}_children_right"] = tree.children_right
            arrays[f"tree{i}_feature"] = tree.feature
            arrays[f"tree{i}_threshold"] = tree.threshold
            arrays[f"tree{i}_leaf_weight"] = tree.leaf_weight
            arrays[f"tree{i}_split_gain"] = tree.split_gain
    elif isinstance(model, LinearSVC):
        meta["intercept"] = model.intercept_
        meta["n_features"] = model.n_features_in_
        arrays["coef"] = model.coef_
    if detector._scaler is not None:
        meta["scaled"] = True
        arrays["scaler_mean"] = detector._scaler.mean_
        arrays["scaler_scale"] = detector._scaler.scale_
    else:
        meta["scaled"] = False
    write_npz_atomic(directory / "detector.npz", **arrays)
    write_json_atomic(directory / "detector.json", meta)


def _load_detector(directory: Path, config: CATSConfig) -> Detector:
    meta = json.loads(
        (directory / "detector.json").read_text(encoding="utf-8")
    )
    arrays = np.load(directory / "detector.npz")
    detector = Detector(config.detector, config.rules)
    name = meta["classifier"]
    if name != config.detector.classifier:
        raise PersistenceError(
            f"archive holds a {name!r} classifier but the stored config "
            f"names {config.detector.classifier!r}"
        )
    if name == "xgboost":
        model = GradientBoostingClassifier(
            learning_rate=float(meta["learning_rate"])
        )
        model.n_features_in_ = int(meta["n_features"])
        model.base_margin_ = float(meta["base_margin"])
        model.trees_ = [
            _BoostTree(
                children_left=arrays[f"tree{i}_children_left"],
                children_right=arrays[f"tree{i}_children_right"],
                feature=arrays[f"tree{i}_feature"],
                threshold=arrays[f"tree{i}_threshold"],
                leaf_weight=arrays[f"tree{i}_leaf_weight"],
                split_gain=arrays[f"tree{i}_split_gain"],
            )
            for i in range(int(meta["n_trees"]))
        ]
    elif name == "svm":
        model = LinearSVC()
        model.n_features_in_ = int(meta["n_features"])
        model.coef_ = arrays["coef"]
        model.intercept_ = float(meta["intercept"])
    else:  # pragma: no cover - guarded at save time
        raise PersistenceError(f"unsupported classifier {name!r}")
    detector._model = model
    if meta["scaled"]:
        scaler = StandardScaler()
        scaler.mean_ = arrays["scaler_mean"]
        scaler.scale_ = arrays["scaler_scale"]
        scaler.n_features_in_ = len(scaler.mean_)
        detector._scaler = scaler
    return detector


# -- public API -------------------------------------------------------------


def save_cats(cats: CATS, directory: str | Path) -> None:
    """Serialize a trained CATS system under *directory*.

    Raises :class:`PersistenceError` when the detector is unfitted or
    its classifier type is not serializable.
    """
    path = Path(directory)
    path.mkdir(parents=True, exist_ok=True)

    segmenter = cats.analyzer.segmenter
    if not isinstance(segmenter, ViterbiSegmenter):
        raise PersistenceError(
            "only ViterbiSegmenter-based analyzers are serializable"
        )
    write_json_atomic(path / "segmenter.json", segmenter._counts)
    _save_word2vec(cats.analyzer.word2vec, path)
    _save_sentiment(cats.analyzer.sentiment, path)
    write_json_atomic(
        path / "lexicon.json",
        {
            "positive": sorted(cats.analyzer.lexicon.positive),
            "negative": sorted(cats.analyzer.lexicon.negative),
        },
    )
    _save_detector(cats.detector, path)
    manifest = {
        "format_version": FORMAT_VERSION,
        "config": _config_to_dict(cats.config),
        # Ordered feature-schema fingerprint: the stage-2 classifier
        # was fitted against exactly these columns in exactly this
        # order; a loader running under a different schema must reject
        # the archive instead of silently mis-scoring.
        "feature_schema": list(FEATURE_NAMES),
        # Content hashes over the component files written above (the
        # manifest is written last, so the hashes cover final bytes).
        **archive_fingerprint(path),
    }
    write_json_atomic(path / "manifest.json", manifest, indent=2)


def load_cats(directory: str | Path, verify_hash: bool = True) -> CATS:
    """Load a CATS system previously written by :func:`save_cats`.

    Rejects archives whose ordered feature schema differs from this
    build's :data:`~repro.core.features.FEATURE_NAMES` (a model trained
    on different features would load fine and silently mis-score) and,
    with ``verify_hash`` (the default), archives whose component bytes
    no longer match the manifest's ``content_hash``.  Archives written
    before these fields existed load unchecked.

    The loaded system carries its identity in ``cats.archive_info``
    (path, content/analyzer hashes, feature schema), which the serving
    layer surfaces through ``/healthz`` and stamps into checkpoints.
    """
    path = Path(directory)
    manifest = read_manifest(path)
    if manifest.get("format_version") != FORMAT_VERSION:
        raise PersistenceError(
            f"unsupported archive version {manifest.get('format_version')}"
        )
    schema = manifest.get("feature_schema")
    if schema is not None and list(schema) != list(FEATURE_NAMES):
        raise PersistenceError(
            f"archive at {path} was trained on feature schema "
            f"{list(schema)!r} but this build extracts "
            f"{list(FEATURE_NAMES)!r}; refusing to load a model that "
            f"would silently mis-score"
        )
    recorded_hash = manifest.get("content_hash")
    fingerprint: dict[str, str] = {}
    if recorded_hash is not None:
        fingerprint = archive_fingerprint(path)
        if verify_hash and fingerprint["content_hash"] != recorded_hash:
            raise PersistenceError(
                f"archive at {path} does not match its manifest "
                f"content hash (expected {recorded_hash}, recomputed "
                f"{fingerprint['content_hash']}); the archive is "
                f"corrupt or its files were swapped"
            )
    config = _config_from_dict(manifest["config"])

    dictionary = json.loads(
        (path / "segmenter.json").read_text(encoding="utf-8")
    )
    lexicon_data = json.loads(
        (path / "lexicon.json").read_text(encoding="utf-8")
    )
    analyzer = SemanticAnalyzer(
        segmenter=ViterbiSegmenter(dictionary),
        word2vec=_load_word2vec(path),
        sentiment=_load_sentiment(path),
        lexicon=SentimentLexicon(
            positive=frozenset(lexicon_data["positive"]),
            negative=frozenset(lexicon_data["negative"]),
        ),
    )
    cats = CATS(analyzer, config=config)
    cats.detector = _load_detector(path, config)
    cats.archive_info = {
        "path": str(path),
        "format_version": manifest["format_version"],
        "content_hash": fingerprint.get("content_hash", recorded_hash),
        "analyzer_hash": fingerprint.get(
            "analyzer_hash", manifest.get("analyzer_hash")
        ),
        "feature_schema": list(schema) if schema is not None else None,
    }
    return cats
