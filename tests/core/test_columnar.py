"""Tests for repro.core.columnar (ColumnarCommentStore).

The properties that matter:

* **round trip** -- a store built from the extractor's analyzed
  columns, saved and memory-mapped back, must produce feature matrices
  bit-identical (``np.array_equal``) to live analysis, for arbitrary
  comment mixes (empty, punctuation-only, OOV-only) and across
  interner-growing appends;
* **no re-segmentation** -- rehydration must not touch the segmenter
  (counter-verified);
* **committed prefix** -- SIGKILL at any moment of an append/save loop
  must leave a loadable store whose contents are exactly some committed
  prefix of the appended rows.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.columnar import (
    ColumnarCommentStore,
    ColumnarStoreError,
    append_comments,
    gather_ranges,
)
from repro.core.features import FeatureExtractor
from repro.core.interning import TokenInterner
from tests.oracles.columnar import rehydrate_stats
from tests.oracles.features import comment_stats_scalar, stats_of

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


@dataclass
class Rec:
    """Duck-typed comment record (the store only reads these three)."""

    item_id: int
    comment_id: int
    content: str


def _oov_char(language) -> str:
    alphabet = set("".join(language.dictionary_weights()))
    for candidate in "qxz0123456789":
        if candidate not in alphabet:
            return candidate
    raise AssertionError("no OOV character available")


@pytest.fixture(scope="module")
def words(language) -> list[str]:
    return sorted(language.dictionary_weights())[:60]


def build_store(analyzer, items: dict[int, list[str]], directory=None):
    """(store, extractor) holding *items* (item_id -> comment texts)."""
    extractor = FeatureExtractor(analyzer, cache_size=0)
    store = ColumnarCommentStore(analyzer.interner)
    comment_id = 0
    for item_id, texts in items.items():
        records = []
        for text in texts:
            records.append(Rec(item_id, comment_id, text))
            comment_id += 1
        append_comments(store, extractor, records)
    if directory is not None:
        store.save(directory)
    return store, extractor


def live_matrix(extractor, items: dict[int, list[str]]) -> np.ndarray:
    return np.vstack(
        [extractor.extract(texts) for texts in items.values()]
    )


class TestGatherRanges:
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_matches_concatenated_slices(self, data):
        values = np.arange(data.draw(st.integers(1, 200)))
        n = len(values)
        spans = data.draw(
            st.lists(
                st.tuples(st.integers(0, n), st.integers(0, n)).map(
                    lambda p: (min(p), max(p))
                ),
                min_size=0,
                max_size=12,
            )
        )
        starts = np.array([s for s, _ in spans], dtype=np.int64)
        ends = np.array([e for _, e in spans], dtype=np.int64)
        expected = np.concatenate(
            [values[s:e] for s, e in spans] or [values[:0]]
        )
        assert np.array_equal(gather_ranges(values, starts, ends), expected)


class TestRoundTrip:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_feature_matrix_bit_identical_after_reload(
        self, data, analyzer, language, words, tmp_path_factory
    ):
        oov = _oov_char(language)
        comment = st.lists(
            st.sampled_from(words + [",", "!", oov, oov * 3]),
            min_size=0,
            max_size=8,
        ).map("".join)
        items = {
            item_id: data.draw(
                st.lists(comment, min_size=0, max_size=5)
            )
            for item_id in range(1, data.draw(st.integers(1, 5)) + 1)
        }
        directory = tmp_path_factory.mktemp("store")
        store, extractor = build_store(analyzer, items, directory)
        expected = live_matrix(extractor, items)
        assert np.array_equal(
            store.feature_matrix(items.keys()), expected
        )
        reloaded = ColumnarCommentStore.load(directory, mode="mmap")
        assert np.array_equal(
            reloaded.feature_matrix(items.keys()), expected
        )

    def test_empty_and_oov_only_comments(
        self, analyzer, language, tmp_path
    ):
        oov = _oov_char(language)
        items = {7: ["", oov * 4, ""], 9: [], 11: [oov, oov * 2]}
        store, extractor = build_store(analyzer, items, tmp_path)
        expected = live_matrix(extractor, items)
        reloaded = ColumnarCommentStore.load(tmp_path)
        assert np.array_equal(
            reloaded.feature_matrix(items.keys()), expected
        )

    def test_interner_growth_across_appends(
        self, analyzer, language, words, tmp_path
    ):
        # OOV chars segment to single-char tokens, so a char the
        # interner has never seen interns a fresh id.
        alphabet = set("".join(language.dictionary_weights()))
        novel = [
            c
            for c in "0123456789"
            if c not in alphabet and c not in analyzer.interner
        ][:2]
        assert len(novel) == 2, "no unseen OOV characters left"
        extractor = FeatureExtractor(analyzer, cache_size=0)
        store = ColumnarCommentStore(analyzer.interner)
        first = [Rec(1, 0, words[0] + words[1]), Rec(1, 1, words[2])]
        append_comments(store, extractor, first)
        store.save(tmp_path)
        vocab_before = len(analyzer.interner)
        second = [
            Rec(2, 2, novel[0] + novel[1]),
            Rec(2, 3, novel[1] + words[0]),
        ]
        append_comments(store, extractor, second)
        assert len(analyzer.interner) > vocab_before
        generation = store.save()
        assert generation == 2
        items = {
            1: [r.content for r in first],
            2: [r.content for r in second],
        }
        reloaded = ColumnarCommentStore.load(tmp_path)
        assert np.array_equal(
            reloaded.feature_matrix([1, 2]),
            live_matrix(extractor, items),
        )

    def test_rehydrate_stats_equal_fresh_analysis(
        self, analyzer, words, tmp_path
    ):
        texts = [words[0] + words[1] + ",", words[2], ""]
        items = {3: texts}
        store, extractor = build_store(analyzer, items, tmp_path)
        reloaded = ColumnarCommentStore.load(tmp_path)
        rehydrated = rehydrate_stats(reloaded, range(len(texts)))
        assert rehydrated == stats_of(
            extractor.comment_stats_many(texts), analyzer.interner
        )

    def test_rehydration_skips_resegmentation(
        self, analyzer, words, tmp_path
    ):
        """Acceptance criterion: restart rehydration must not re-run
        segmentation -- the analyzer's counter must not move."""
        items = {1: [words[0] + words[1], words[2]], 2: [words[3]]}
        store, extractor = build_store(analyzer, items, tmp_path)
        reloaded = ColumnarCommentStore.load(tmp_path)
        before = analyzer.n_segmentations
        matrix = reloaded.feature_matrix([1, 2])
        stats = rehydrate_stats(reloaded, range(3))
        assert analyzer.n_segmentations == before
        assert matrix.shape[0] == 2 and len(stats) == 3
        # ... while the live path does segment (counter sanity).
        comment_stats_scalar(extractor, words[0])
        assert analyzer.n_segmentations == before + 1


class TestGuards:
    def test_mmap_store_rejects_append_and_save(
        self, analyzer, words, tmp_path
    ):
        store, extractor = build_store(
            analyzer, {1: [words[0]]}, tmp_path
        )
        reloaded = ColumnarCommentStore.load(tmp_path)
        batch = extractor.comment_stats_many([words[1]])
        with pytest.raises(ColumnarStoreError, match="read-only"):
            reloaded.append_arrays(
                [1], [99], batch.tokens, batch.offsets, batch.columns
            )
        with pytest.raises(ColumnarStoreError, match="read-only"):
            reloaded.save(tmp_path)

    def test_frozen_interner_rejects_new_words(
        self, analyzer, words, tmp_path
    ):
        build_store(analyzer, {1: [words[0]]}, tmp_path)
        frozen = ColumnarCommentStore.load(tmp_path).interner
        assert frozen.frozen
        assert frozen.intern(words[0]) == analyzer.interner.intern(
            words[0]
        )
        with pytest.raises(KeyError, match="frozen"):
            frozen.intern("never-seen-before-word")

    def test_foreign_token_ids_rejected(self, analyzer, words):
        """Only ids of the store's interner can feed its arena: a batch
        analyzed under another (smaller) interner is refused."""
        extractor = FeatureExtractor(analyzer, cache_size=0)
        batch = extractor.comment_columns([words[0]])
        store = ColumnarCommentStore(TokenInterner(frozenset(), frozenset()))
        with pytest.raises(ColumnarStoreError, match="outside"):
            store.append_arrays(
                [1], [0], batch.tokens, batch.offsets, batch.columns
            )
        assert store.n_comments == 0

    def test_length_mismatch_rejected(self, analyzer, words):
        extractor = FeatureExtractor(analyzer, cache_size=0)
        store = ColumnarCommentStore(analyzer.interner)
        batch = extractor.comment_stats_many([words[0]])
        payload = (batch.tokens, batch.offsets, batch.columns)
        with pytest.raises(ColumnarStoreError, match="item ids"):
            store.append_arrays([1, 1], [0, 1], *payload)
        with pytest.raises(ColumnarStoreError, match="timestamps"):
            store.append_arrays([1], [0], *payload, timestamps=[1.0, 2.0])

    def test_adopt_words_mismatch(self, words):
        interner = TokenInterner(frozenset(), frozenset())
        interner.intern("already-here")
        with pytest.raises(ValueError, match="attach the store"):
            interner.adopt_words([words[0], words[1]])

    def test_attach_replays_stored_vocabulary(
        self, analyzer, words, tmp_path
    ):
        from types import SimpleNamespace

        store, extractor = build_store(
            analyzer, {1: [words[0] + words[1]]}, tmp_path
        )
        expected = store.feature_matrix([1])
        fresh = SimpleNamespace(
            interner=TokenInterner(frozenset(), frozenset())
        )
        attached = ColumnarCommentStore.attach(tmp_path, fresh)
        assert attached.mode == "memory"
        assert attached.interner is fresh.interner
        assert fresh.interner.words[: len(analyzer.interner)] == (
            analyzer.interner.words
        )
        assert np.array_equal(attached.feature_matrix([1]), expected)

    def test_analyzer_hash_mismatch_rejected(self, analyzer, words, tmp_path):
        extractor = FeatureExtractor(analyzer, cache_size=0)
        store = ColumnarCommentStore(
            analyzer.interner, analyzer_hash="aaaaaaaaaaaaaaaa"
        )
        batch = extractor.comment_stats_many([words[0]])
        store.append_arrays(
            [1], [0], batch.tokens, batch.offsets, batch.columns
        )
        store.save(tmp_path)
        with pytest.raises(ColumnarStoreError, match="analyzer"):
            ColumnarCommentStore.load(
                tmp_path, expected_analyzer_hash="bbbbbbbbbbbbbbbb"
            )
        # Matching (or absent) expectation loads fine.
        ColumnarCommentStore.load(
            tmp_path, expected_analyzer_hash="aaaaaaaaaaaaaaaa"
        )

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(ColumnarStoreError, match="store.json"):
            ColumnarCommentStore.load(tmp_path)

    def test_truncated_column_rejected(self, analyzer, words, tmp_path):
        build_store(analyzer, {1: [words[0], words[1]]}, tmp_path)
        short = np.load(tmp_path / "sentiment.npy")[:-1]
        np.save(tmp_path / "sentiment.npy", short)
        with pytest.raises(ColumnarStoreError):
            ColumnarCommentStore.load(tmp_path)


#: Child process for the SIGKILL test.  Appends deterministic synthetic
#: batches and saves after every one, printing the generation; ``check``
#: mode regenerates the same batches and verifies the committed prefix.
CRASH_SCRIPT = r"""
import sys

import numpy as np

from repro.core.columnar import STAT_COLUMN_NAMES, ColumnarCommentStore
from repro.core.interning import TokenInterner

BATCH = 32
MAX_BATCHES = 400


def make_batch(index, interner):
    rng = np.random.default_rng(index)
    tokens, lengths, stamps = [], [], []
    columns = {name: [] for name in STAT_COLUMN_NAMES}
    for j in range(BATCH):
        n = int(rng.integers(0, 6))
        words = [f"w{int(k)}" for k in rng.integers(0, 50, n)]
        tokens.extend(interner.encode(words).tolist())
        lengths.append(n)
        for name in STAT_COLUMN_NAMES:
            columns[name].append(
                float(rng.random())
                if name in ("sentiment", "entropy", "punctuation_ratio",
                            "bigram_ratio_term")
                else int(rng.integers(0, 4))
            )
        stamps.append(float(index))
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    item_ids = [index] * BATCH
    comment_ids = [index * BATCH + j for j in range(BATCH)]
    return item_ids, comment_ids, tokens, offsets, columns, stamps


def run(directory):
    interner = TokenInterner(frozenset(["w0"]), frozenset(["w1"]))
    store = ColumnarCommentStore(interner)
    for index in range(MAX_BATCHES):
        *batch, stamps = make_batch(index, interner)
        store.append_arrays(*batch, timestamps=stamps)
        generation = store.save(directory)
        print(f"gen {generation}", flush=True)


def check(directory):
    loaded = ColumnarCommentStore.load(directory)
    n = loaded.n_comments
    assert n % BATCH == 0, f"committed {n} rows, not a batch multiple"
    assert n > 0, "no committed batches survived"
    reference = TokenInterner(frozenset(["w0"]), frozenset(["w1"]))
    tokens, columns = [], {name: [] for name in (
        "item_id", "comment_id", "n_chars", "sentiment", "timestamp"
    )}
    for index in range(n // BATCH):
        item_ids, comment_ids, batch_tokens, _, stats, stamps = make_batch(
            index, reference
        )
        tokens.extend(batch_tokens)
        columns["item_id"].extend(item_ids)
        columns["comment_id"].extend(comment_ids)
        columns["n_chars"].extend(stats["n_chars"])
        columns["sentiment"].extend(stats["sentiment"])
        columns["timestamp"].extend(stamps)
    assert loaded.tokens().tolist() == tokens
    for name, expected in columns.items():
        assert loaded.column(name).tolist() == expected, name
    assert loaded.interner.words == reference.words[: len(
        loaded.interner
    )]
    print(f"prefix ok: {n} rows", flush=True)


if __name__ == "__main__":
    mode, directory = sys.argv[1], sys.argv[2]
    run(directory) if mode == "run" else check(directory)
"""


class TestCrashSafety:
    def test_sigkill_leaves_loadable_committed_prefix(self, tmp_path):
        script = tmp_path / "crash_child.py"
        script.write_text(CRASH_SCRIPT, encoding="utf-8")
        store_dir = tmp_path / "store"
        env = dict(os.environ, PYTHONPATH=str(REPO_SRC))
        child = subprocess.Popen(
            [sys.executable, str(script), "run", str(store_dir)],
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            # Let a few generations commit, then kill without warning --
            # the child is likely mid-append or mid-save.
            for line in child.stdout:
                if line.startswith("gen 5"):
                    break
            child.kill()
            child.wait(timeout=30)
        finally:
            if child.poll() is None:  # pragma: no cover - cleanup
                child.kill()
        assert child.returncode in (-signal.SIGKILL, 0)
        verify = subprocess.run(
            [sys.executable, str(script), "check", str(store_dir)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert verify.returncode == 0, verify.stdout + verify.stderr
        assert "prefix ok" in verify.stdout
