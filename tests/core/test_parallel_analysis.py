"""Tests for repro.core.parallel_analysis.

The contract under test: ``analyze_many`` on any worker count and any
chunk size produces a store **bit-identical** to the serial
``append_comments`` run -- same token arena, offsets, stat columns,
feature matrix (``np.array_equal``), and a byte-identical interner
snapshot -- and a worker dying mid-run fails loudly with *nothing*
appended, never a partial store.

Parity is property-tested over usable-CPU counts 1, 2, 3 and 7
(:data:`tests.pools.PARITY_CPUS`): 2 runs a real process pool, 3 and 7
:func:`tests.pools.simulated_pool`, an in-process stand-in that runs
the exact worker code (initializer-cloned analyzer, cumulative local
interner, shard emission) minus the process spawn -- chunk scheduling,
vocabulary growth across chunk boundaries, and the deterministic merge
are all real.  Real process pools also get the killed-worker test.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analyzer import SemanticAnalyzer
from repro.core.columnar import (
    ColumnarCommentStore,
    ColumnarStoreError,
    append_comments,
)
from repro.core.features import FeatureExtractor
from repro.core.interning import TokenInterner, merge_interners, remap_ids
from repro import parallel
from repro.core import parallel_analysis
from repro.core.parallel_analysis import (
    ENGINE_STATS,
    ParallelAnalysisError,
    analyze_many,
    analyze_stats_many,
)
from tests.oracles.features import assert_columns_identical
from tests.pools import PARITY_CPUS, executor, on_cpus, simulated_pool

#: Non-timestamp columns that must match bit for bit between serial and
#: parallel stores (timestamps are wall clock at append).
COMPARED_COLUMNS = (
    "item_id",
    "comment_id",
    "n_chars",
    "n_positive_distinct",
    "pos_neg_delta",
    "n_punctuation",
    "n_positive_bigrams",
    "sentiment",
    "entropy",
    "punctuation_ratio",
    "bigram_ratio_term",
)


@dataclass
class Rec:
    """Duck-typed comment record (the engine reads these three)."""

    item_id: int
    comment_id: int
    content: str


@pytest.fixture(scope="module")
def spec(analyzer) -> bytes:
    """One pickled analyzer spec; every run clones a private analyzer
    from it so serial and parallel runs start from identical state."""
    return analyzer.clone_spec()


@pytest.fixture(scope="module")
def words(language) -> list[str]:
    return sorted(language.dictionary_weights())[:60]


@pytest.fixture(scope="module")
def oov(language) -> str:
    alphabet = set("".join(language.dictionary_weights()))
    for candidate in "qxz0123456789":
        if candidate not in alphabet:
            return candidate
    raise AssertionError("no OOV character available")


def fresh(spec: bytes, cache_size=32768):
    """(analyzer, extractor, store) cloned from *spec*."""
    clone = SemanticAnalyzer.from_spec(spec)
    extractor = FeatureExtractor(clone, cache_size=cache_size)
    store = ColumnarCommentStore(clone.interner)
    return clone, extractor, store


def make_records(texts: list[str], comments_per_item: int = 3) -> list[Rec]:
    return [
        Rec(item_id=i // comments_per_item, comment_id=i, content=text)
        for i, text in enumerate(texts)
    ]


def serial_store(spec: bytes, records, chunk_size=8192):
    clone, extractor, store = fresh(spec)
    append_comments(store, extractor, records, chunk_size=chunk_size)
    return clone, extractor, store


def assert_stores_identical(expected: ColumnarCommentStore,
                            actual: ColumnarCommentStore) -> None:
    assert actual.n_comments == expected.n_comments
    assert np.array_equal(
        np.asarray(actual.tokens()), np.asarray(expected.tokens())
    )
    assert np.array_equal(
        np.asarray(actual.offsets()), np.asarray(expected.offsets())
    )
    for name in COMPARED_COLUMNS:
        assert np.array_equal(
            np.asarray(actual.column(name)),
            np.asarray(expected.column(name)),
        ), f"column {name} differs"
    left = expected.interner.export_state()
    right = actual.interner.export_state()
    assert left["words"] == right["words"]
    for key in ("positive_mask", "negative_mask", "sentiment_ids"):
        assert np.array_equal(left[key], right[key])


class TestMergeInterners:
    def _interner(self, base_words):
        interner = TokenInterner(
            positive=frozenset({"p"}), negative=frozenset({"n"})
        )
        for word in base_words:
            interner.intern(word)
        return interner

    def test_identity_below_base(self):
        target = self._interner(["a", "b", "c"])
        lut = merge_interners(target, [], base_size=3)
        assert np.array_equal(lut, [0, 1, 2])
        assert len(target) == 3

    def test_new_words_get_dense_ids_in_order(self):
        target = self._interner(["a", "b"])
        lut = merge_interners(target, ["x", "y"], base_size=2)
        assert np.array_equal(lut, [0, 1, 2, 3])
        assert target.words_from(2) == ["x", "y"]

    def test_already_merged_words_keep_their_ids(self):
        target = self._interner(["a", "b"])
        merge_interners(target, ["x", "y"], base_size=2)
        # A second shard saw y first, then a fresh word.
        lut = merge_interners(target, ["y", "z"], base_size=2)
        assert np.array_equal(lut, [0, 1, 3, 4])
        assert target.words_from(0) == ["a", "b", "x", "y", "z"]

    def test_rejects_target_smaller_than_base(self):
        target = self._interner(["a"])
        with pytest.raises(ValueError, match="cloned from a base"):
            merge_interners(target, ["x"], base_size=5)

    def test_remap_gathers_through_lut(self):
        lut = np.array([0, 1, 5, 3], dtype=np.int32)
        ids = np.array([2, 2, 0, 3], dtype=np.int32)
        remapped = remap_ids(ids, lut)
        assert remapped.dtype == np.int32
        assert np.array_equal(remapped, [5, 5, 0, 3])

    def test_remap_rejects_out_of_range_ids(self):
        lut = np.array([0, 1], dtype=np.int32)
        with pytest.raises(ValueError, match="LUT"):
            remap_ids(np.array([2], dtype=np.int32), lut)

    def test_words_from_rejects_negative(self, analyzer):
        with pytest.raises(ValueError):
            analyzer.interner.words_from(-1)


class TestChunkBounds:
    @given(n=st.integers(0, 40_000), chunk_size=st.integers(1, 9_000))
    @settings(max_examples=200, deadline=None)
    def test_ceil_many_contiguous_near_equal_chunks(self, n, chunk_size):
        bounds = parallel_analysis._chunk_bounds(n, chunk_size)
        assert len(bounds) == -(-n // chunk_size)
        starts = [start for start, _ in bounds]
        ends = [end for _, end in bounds]
        assert starts[1:] == ends[:-1]
        assert bounds == [] or (starts[0], ends[-1]) == (0, n)
        sizes = [end - start for start, end in bounds]
        assert all(1 <= size <= chunk_size for size in sizes)
        assert sizes == [] or max(sizes) - min(sizes) <= 1

    def test_a_store_one_over_a_chunk_splits_in_halves(self):
        # Not a full chunk plus a one-comment sliver for a second worker.
        assert parallel_analysis._chunk_bounds(8193, 8192) == [
            (0, 4096),
            (4096, 8193),
        ]
        assert parallel_analysis._chunk_bounds(16384, 8192) == [
            (0, 8192),
            (8192, 16384),
        ]


class TestInlineParity:
    """Serial/parallel bit-identity over random corpora, usable-CPU
    counts {1,2,3,7} and ragged chunk sizes."""

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_store_bit_identical(self, data, spec, words, oov):
        comment = st.lists(
            st.sampled_from(words + ["", ",", "!", oov, oov * 3]),
            min_size=0,
            max_size=6,
        ).map("".join)
        texts = data.draw(st.lists(comment, min_size=2, max_size=40))
        n_cpus = data.draw(st.sampled_from(PARITY_CPUS))
        chunk_size = data.draw(st.sampled_from([1, 2, 3, 5, 8, 64]))
        records = make_records(texts)

        _, _, expected = serial_store(spec, records)
        _, extractor, store = fresh(spec)
        with executor(n_cpus):
            appended = analyze_many(
                store, extractor, records, chunk_size=chunk_size
            )
        assert appended == len(records)
        assert_stores_identical(expected, store)

    def test_vocab_growth_split_across_chunk_boundaries(self, spec, oov):
        # Fresh words first occur in different chunks; chunk_size=2 with
        # 3 workers puts consecutive chunks on different simulated
        # workers, so the merge must restore global first-seen order.
        novel = [oov * k for k in range(2, 9)]
        texts = []
        for word in novel:
            texts += [word, word + ",", ""]
        records = make_records(texts, comments_per_item=2)
        _, _, expected = serial_store(spec, records)
        _, extractor, store = fresh(spec)
        with simulated_pool(3):
            analyze_many(store, extractor, records, chunk_size=2)
        assert_stores_identical(expected, store)

    def test_feature_matrix_and_item_coverage(self, spec, words):
        texts = [w * 2 for w in words[:24]]
        records = make_records(texts, comments_per_item=4)
        item_ids = sorted({r.item_id for r in records})
        _, _, expected = serial_store(spec, records)
        _, extractor, store = fresh(spec)
        with simulated_pool(7):
            analyze_many(store, extractor, records, chunk_size=5)
        assert np.array_equal(
            expected.feature_matrix(item_ids),
            store.feature_matrix(item_ids),
        )
        for item_id in item_ids:
            assert np.array_equal(
                expected.item_rows(item_id), store.item_rows(item_id)
            )

    def test_serial_path_for_one_worker(self, spec, words, monkeypatch):
        records = make_records([words[0], words[1]] * 3)
        _, _, expected = serial_store(spec, records)
        runs_before = ENGINE_STATS["parallel_runs"]
        def boom(*args, **kwargs):
            raise AssertionError("a pool was built")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", boom)
        # One usable CPU, or one chunk: no pool, no engine run.
        for n_cpus, chunk_size in ((1, 2), (8, 64)):
            _, extractor, store = fresh(spec)
            with on_cpus(n_cpus):
                analyze_many(store, extractor, records, chunk_size=chunk_size)
            assert_stores_identical(expected, store)
        assert ENGINE_STATS["parallel_runs"] == runs_before


class TestCounterMerge:
    def test_segmentations_folded_into_parent(self, spec, words):
        texts = [words[i % len(words)] * 2 for i in range(20)]
        records = make_records(texts)
        clone, extractor, store = fresh(spec)
        assert clone.n_segmentations == 0
        with simulated_pool(3):
            analyze_many(store, extractor, records, chunk_size=4)
        # Every distinct text was segmented somewhere on the parent's
        # behalf; the merged counter reports that work.
        assert clone.n_segmentations >= len(set(texts))

    def test_merge_counters_rejects_negative(self, analyzer):
        with pytest.raises(ValueError):
            analyzer.merge_counters(-1)


class TestBatchPathSkipsObjectsAndCache:
    @pytest.mark.parametrize("n_cpus", [1, 3])
    def test_append_builds_no_stats_and_never_touches_the_cache(
        self, spec, words, monkeypatch, n_cpus
    ):
        def forbidden(*args, **kwargs):
            raise AssertionError("the batch path took the cached path")

        monkeypatch.setattr(
            FeatureExtractor, "comment_stats_many", forbidden
        )
        records = make_records([words[0], words[1] * 2, words[0]] * 3)
        _, extractor, store = fresh(spec)
        with simulated_pool(n_cpus):
            analyze_many(store, extractor, records, chunk_size=2)
        assert store.n_comments == len(records)
        info = extractor.cache_info()
        assert (info.hits, info.misses, info.size) == (0, 0, 0)


class TestStatsMany:
    def test_equal_to_serial(self, spec, words, oov):
        """The parallel batch equals the serial one, dtypes and token
        ids (merged into the parent's id space) included, and leaves
        the analysis cache alone, as the other batch paths do."""
        texts = [words[0] + words[1], "", oov * 4, words[2] * 3] * 3
        _, serial_extractor, _ = fresh(spec)
        serial = serial_extractor.comment_stats_many(texts)
        _, extractor, _ = fresh(spec)
        with simulated_pool(3):
            rebuilt = analyze_stats_many(extractor, texts, chunk_size=3)
        assert len(rebuilt) == len(texts)
        assert_columns_identical(rebuilt, serial)
        info = extractor.cache_info()
        assert (info.hits, info.misses, info.size) == (0, 0, 0)

    def test_one_chunk_batch_runs_inline(self, spec, words, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("a pool was built")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", boom)
        texts = [words[0], words[1] * 2] * 5
        _, serial_extractor, _ = fresh(spec)
        serial = serial_extractor.comment_stats_many(texts)
        _, extractor, _ = fresh(spec)
        with on_cpus(8):
            assert_columns_identical(
                analyze_stats_many(extractor, texts), serial
            )

    def test_interner_grows_identically(self, spec, oov):
        texts = [oov * k for k in range(2, 10)]
        clone_serial, serial_extractor, _ = fresh(spec)
        serial_extractor.comment_stats_many(texts)
        clone_parallel, extractor, _ = fresh(spec)
        with simulated_pool(3):
            analyze_stats_many(extractor, texts, chunk_size=2)
        assert (
            clone_serial.interner.export_state()["words"]
            == clone_parallel.interner.export_state()["words"]
        )


class TestProcessPool:
    @on_cpus(2)
    def test_real_pool_matches_serial(self, spec, words, oov):
        texts = [words[i % len(words)] + (oov if i % 7 == 0 else "")
                 for i in range(30)]
        records = make_records(texts)
        _, _, expected = serial_store(spec, records)
        _, extractor, store = fresh(spec)
        runs_before = ENGINE_STATS["parallel_runs"]
        analyze_many(store, extractor, records, chunk_size=7)
        assert_stores_identical(expected, store)
        assert ENGINE_STATS["parallel_runs"] == runs_before + 1

    @on_cpus(2)
    def test_killed_worker_fails_loudly_with_empty_store(
        self, spec, words, monkeypatch
    ):
        if multiprocessing.get_start_method() != "fork":
            pytest.skip("fork start method required to inject the kill")
        parent = os.getpid()

        def die(state, texts):
            if os.getpid() == parent:
                raise AssertionError("ran inline; the kill needs a pool")
            os._exit(13)

        # Fork inherits the patched module, so every worker dies on its
        # first chunk.
        monkeypatch.setattr(
            parallel_analysis, "_analyze_chunk_in_state", die
        )
        records = make_records([words[0], words[1], words[2]] * 4)
        _, extractor, store = fresh(spec)
        with pytest.raises(ParallelAnalysisError, match="died mid-run"):
            analyze_many(store, extractor, records, chunk_size=3)
        # Nothing was committed: no partial store.
        assert store.n_comments == 0
        assert store.n_tokens == 0

    @on_cpus(4)
    def test_spawn_denied_falls_back_to_serial(
        self, spec, words, monkeypatch
    ):
        def deny(*args, **kwargs):
            raise PermissionError("no processes in this sandbox")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", deny)
        records = make_records([words[0], words[1]] * 3)
        _, _, expected = serial_store(spec, records)
        _, extractor, store = fresh(spec)
        fallbacks_before = ENGINE_STATS["serial_fallbacks"]
        appended = analyze_many(store, extractor, records, chunk_size=2)
        assert appended == len(records)
        assert ENGINE_STATS["serial_fallbacks"] == fallbacks_before + 1
        assert_stores_identical(expected, store)
        # The inline run dropped its analyzer clone afterwards.
        assert parallel.worker_state() is None


class TestAppendArrays:
    def test_rejects_unremapped_ids(self, spec):
        _, _, store = fresh(spec)
        base = len(store.interner)
        with pytest.raises(ColumnarStoreError, match="remap"):
            store.append_arrays(
                item_ids=[1],
                comment_ids=[1],
                tokens=np.array([base + 10], dtype=np.int32),
                offsets=np.array([0, 1], dtype=np.int64),
                columns={
                    name: np.zeros(1)
                    for name in (
                        "n_chars", "n_positive_distinct", "pos_neg_delta",
                        "n_punctuation", "n_positive_bigrams", "sentiment",
                        "entropy", "punctuation_ratio", "bigram_ratio_term",
                    )
                },
            )

    def test_rejects_bad_offsets(self, spec):
        _, _, store = fresh(spec)
        with pytest.raises(ColumnarStoreError, match="offsets"):
            store.append_arrays(
                item_ids=[], comment_ids=[],
                tokens=np.empty(0, dtype=np.int32),
                offsets=np.array([1], dtype=np.int64),
                columns={},
            )

    def test_rejects_missing_columns(self, spec):
        _, _, store = fresh(spec)
        with pytest.raises(ColumnarStoreError, match="missing"):
            store.append_arrays(
                item_ids=[], comment_ids=[],
                tokens=np.empty(0, dtype=np.int32),
                offsets=np.array([0], dtype=np.int64),
                columns={},
            )


class TestCloneSpec:
    def test_clone_is_independent(self, analyzer):
        clone = SemanticAnalyzer.from_spec(analyzer.clone_spec())
        assert clone is not analyzer
        assert clone.n_segmentations == 0
        base = len(analyzer.interner)
        assert len(clone.interner) == base
        assert clone.interner.words_from(0) == (
            analyzer.interner.words_from(0)
        )
        clone.interner.intern("__clone_only__" )
        assert len(analyzer.interner) == base

    def test_clone_spec_drops_bound_method_shims(self, analyzer):
        # An instrumentation wrapper restored as `analyzer.segment =
        # <bound method>` leaves an instance attribute shadowing the
        # class method; a naive clone would pickle that bound method
        # and count segmentations on its hidden __self__ copy instead
        # of the clone.
        analyzer.segment = analyzer.segment
        try:
            clone = SemanticAnalyzer.from_spec(analyzer.clone_spec())
        finally:
            del analyzer.segment
        assert "segment" not in clone.__dict__
        clone.segment("a")
        assert clone.n_segmentations == 1

    def test_from_spec_rejects_other_payloads(self):
        import pickle

        with pytest.raises(TypeError):
            SemanticAnalyzer.from_spec(pickle.dumps({"not": "analyzer"}))
