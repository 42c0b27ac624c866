"""Bit-identity of the vectorized analysis path against the scalar
reference.

The chunk kernel (``FeatureExtractor.comment_columns``, with batched NB
sentiment) must produce *exactly* the values of the original
string-based implementation, which is kept as
``tests.oracles.features.comment_stats_scalar`` -- both as the rows
``comment_stats_many`` returns (cached or fresh) and as the rows
``append_comments`` stores, serially and on the parallel engine.  Every
comparison here is ``==`` / ``np.array_equal`` -- no tolerances.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.analyzer import SemanticAnalyzer
from repro.core.columnar import ColumnarCommentStore, append_comments
from repro.core.features import FeatureExtractor
from repro.core.parallel_analysis import analyze_many
from tests.oracles.features import (
    ItemAccumulator,
    assert_columns_identical,
    comment_stats_scalar,
    stats_of,
)
from tests.pools import executor

#: Distinct-word counts around the points where numpy's pairwise sum
#: changes order: the 8-way unroll starts at 8 terms, and vectors past
#: 128 terms are split into blocks.
DISTINCT_COUNTS = (1, 7, 8, 9, 127, 128, 129, 200)


def _oov_char(language) -> str:
    """A word-character no dictionary word contains."""
    alphabet = set("".join(language.dictionary_weights()))
    for candidate in "qxz0123456789":
        if candidate not in alphabet:
            return candidate
    raise AssertionError("no OOV character available")


@pytest.fixture(scope="module")
def words(language) -> list[str]:
    return sorted(language.dictionary_weights())[:80]


def analyzed(extractor, text):
    """``comment_stats(text)``'s one row as a reference record."""
    [stats] = stats_of(
        extractor.comment_stats(text), extractor.analyzer.interner
    )
    return stats


def analyzed_many(extractor, texts):
    """``comment_stats_many(texts)``'s rows as reference records."""
    batch = extractor.comment_stats_many(texts)
    assert len(batch) == len(texts)
    return stats_of(batch, extractor.analyzer.interner)


def assert_stats_equal(actual, expected):
    """Field-exact reference-record comparison, readable failures."""
    assert actual.n_words == expected.n_words
    assert actual.word_counts == expected.word_counts
    assert actual.n_positive_distinct == expected.n_positive_distinct
    assert actual.pos_neg_delta == expected.pos_neg_delta
    assert actual.sentiment == expected.sentiment
    assert actual.entropy == expected.entropy
    assert actual.n_punctuation == expected.n_punctuation
    assert actual.punctuation_ratio == expected.punctuation_ratio
    assert actual.n_positive_bigrams == expected.n_positive_bigrams
    assert actual.bigram_ratio_term == expected.bigram_ratio_term


class TestCommentStatsBitIdentity:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_rendered_comments(self, data, analyzer, words):
        pieces = data.draw(
            st.lists(
                st.sampled_from(words + [",", "!", "."]),
                min_size=0,
                max_size=12,
            )
        )
        text = "".join(pieces)
        extractor = FeatureExtractor(analyzer, cache_size=0)
        assert_stats_equal(
            analyzed(extractor, text),
            comment_stats_scalar(extractor, text),
        )

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_oov_heavy_comments(self, data, analyzer, words, language):
        oov = _oov_char(language)
        pieces = data.draw(
            st.lists(
                st.sampled_from(words[:10] + [oov, oov * 2, ","]),
                min_size=1,
                max_size=10,
            )
        )
        text = "".join(pieces)
        extractor = FeatureExtractor(analyzer, cache_size=0)
        assert_stats_equal(
            analyzed(extractor, text),
            comment_stats_scalar(extractor, text),
        )

    def test_empty_comment(self, analyzer):
        extractor = FeatureExtractor(analyzer, cache_size=0)
        assert_stats_equal(
            analyzed(extractor, ""),
            comment_stats_scalar(extractor, ""),
        )

    def test_punctuation_only_comment(self, analyzer):
        extractor = FeatureExtractor(analyzer, cache_size=0)
        assert_stats_equal(
            analyzed(extractor, ",.!?"),
            comment_stats_scalar(extractor, ",.!?"),
        )

    def test_oov_only_comment(self, analyzer, language):
        text = _oov_char(language) * 3
        extractor = FeatureExtractor(analyzer, cache_size=0)
        assert_stats_equal(
            analyzed(extractor, text),
            comment_stats_scalar(extractor, text),
        )

    def test_single_word_comment(self, analyzer, words):
        extractor = FeatureExtractor(analyzer, cache_size=0)
        stats = analyzed(extractor, words[0])
        assert_stats_equal(
            stats, comment_stats_scalar(extractor, words[0])
        )
        # A single-word comment has zero entropy; the vectorized kernel
        # must not leak a negative zero.
        assert str(stats.entropy) == "0.0"

    def test_positive_lexicon_comment(self, analyzer):
        # Guarantee non-trivial positive counts / bigrams.
        positive = sorted(analyzer.lexicon.positive)[:4]
        text = "".join(positive) * 2
        extractor = FeatureExtractor(analyzer, cache_size=0)
        stats = analyzed(extractor, text)
        assert_stats_equal(stats, comment_stats_scalar(extractor, text))
        assert stats.n_positive_distinct > 0


class TestBatchBitIdentity:
    def _texts(self, language, n=30):
        from repro.ecommerce.language import PROMO_STYLE

        rng = np.random.default_rng(99)
        return [
            language.generate_comment(PROMO_STYLE, rng)[0]
            for __ in range(n)
        ]

    def test_comment_stats_many_matches_scalar(self, analyzer, language):
        texts = self._texts(language)
        texts = texts + texts[:5]  # in-batch duplicates
        extractor = FeatureExtractor(analyzer)
        for text, stats in zip(texts, analyzed_many(extractor, texts)):
            assert_stats_equal(stats, comment_stats_scalar(extractor, text))

    def test_cached_batches_equal_the_kernel(self, analyzer, language):
        """Batches mixing cache hits, misses and in-batch duplicates
        return the cache-less kernel's columns, dtypes included."""
        texts = self._texts(language, n=12)
        extractor = FeatureExtractor(analyzer)
        kernel = FeatureExtractor(analyzer, cache_size=0)
        batches = [
            texts[:4],  # all misses
            texts[2:8] + texts[3:5],  # hits, misses, in-batch duplicates
            texts[6:8] * 2,  # hits only, duplicated
            texts[8:] + texts[8:],  # misses duplicated
        ]
        for batch in batches:
            assert_columns_identical(
                extractor.comment_stats_many(batch),
                kernel.comment_columns(batch),
            )
        info = extractor.cache_info()
        assert info.hits > 0 and info.size == len(texts)

    def test_extract_bit_identical_to_scalar_accumulation(
        self, analyzer, language
    ):
        texts = self._texts(language)
        extractor = FeatureExtractor(analyzer)
        accumulator = ItemAccumulator()
        for text in texts:
            accumulator.add(comment_stats_scalar(extractor, text))
        assert np.array_equal(
            extractor.extract(texts), accumulator.to_vector()
        )

    def test_extract_many_bit_identical(self, analyzer, language):
        lists = [self._texts(language, n=4) for __ in range(6)]
        extractor = FeatureExtractor(analyzer)
        matrix = extractor.extract_many(lists)
        for row, comments in zip(matrix, lists):
            accumulator = ItemAccumulator()
            for text in comments:
                accumulator.add(comment_stats_scalar(extractor, text))
            assert np.array_equal(row, accumulator.to_vector())


class TestBatchedSentimentBitIdentity:
    def test_score_many_equals_score(self, analyzer, language):
        from repro.ecommerce.language import PROMO_STYLE

        rng = np.random.default_rng(17)
        docs = [
            analyzer.segment(language.generate_comment(PROMO_STYLE, rng)[0])
            for __ in range(20)
        ]
        docs.append([])  # empty comment scores the class prior
        sentiment = analyzer.sentiment
        batch = sentiment.score_many(docs)
        assert batch == [sentiment.score(doc) for doc in docs]

    def test_score_ids_equals_score(self, analyzer, language, words):
        interner = analyzer.interner
        sentiment = analyzer.sentiment
        doc = words[:6] + ["notaword"] + words[:2]
        ids = interner.encode(doc)
        assert sentiment.score_ids(
            interner.sentiment_ids[ids]
        ) == sentiment.score(doc)

    def test_score_ids_many_equals_score_ids(self, analyzer, words):
        interner = analyzer.interner
        sentiment = analyzer.sentiment
        docs = [
            interner.sentiment_ids[interner.encode(words[i : i + 4])]
            for i in range(0, 12, 2)
        ]
        docs.append(np.array([], dtype=np.int32))
        batch = sentiment.score_ids_many(docs)
        assert [float(p) for p in batch] == [
            sentiment.score_ids(doc) for doc in docs
        ]


@pytest.fixture(scope="module")
def private_analyzer(analyzer) -> SemanticAnalyzer:
    """A clone, so the lone surrogate below never reaches the shared
    analyzer's interner (stores written from it would carry it)."""
    return SemanticAnalyzer.from_spec(analyzer.clone_spec())


@pytest.fixture(scope="module")
def solo_words(private_analyzer, language) -> list[str]:
    """Dictionary words that segment to themselves when alone."""
    solo = [
        word
        for word in sorted(language.dictionary_weights())
        if private_analyzer.segment(word) == [word]
    ]
    assert len(solo) >= max(DISTINCT_COUNTS)
    return solo


def wide_comment(solo_words, k: int) -> str:
    """A comment of exactly *k* distinct words with uneven counts.

    Whitespace separates the words, so each segments alone; the uneven
    counts make the entropy terms differ, so summation order shows.
    """
    words = [
        word
        for i, word in enumerate(solo_words[:k])
        for _ in range(1 + i % 3)
    ]
    return " ".join(words) + "!"


@pytest.fixture(scope="module")
def edge_texts(solo_words) -> list[str]:
    return [
        f"{solo_words[0]}\ud83d{solo_words[1]}",  # lone surrogate
        f"{solo_words[2]}\U0001f600{solo_words[3]},",  # non-BMP char
        "  \t ",  # whitespace only
        ",.!?\u3002",  # punctuation only
        "",
    ]


@pytest.fixture(scope="module")
def boundary_batch(solo_words, edge_texts) -> list[str]:
    """Wide comments, edge texts, and duplicates of both."""
    wide = [wide_comment(solo_words, k) for k in DISTINCT_COUNTS]
    return wide + edge_texts + wide[::3] + edge_texts[:2]


class TestSummationBoundaries:
    @pytest.mark.parametrize("k", DISTINCT_COUNTS)
    def test_wide_comment_matches_scalar(
        self, private_analyzer, solo_words, k
    ):
        text = wide_comment(solo_words, k)
        extractor = FeatureExtractor(private_analyzer, cache_size=0)
        stats = analyzed(extractor, text)
        assert len(stats.word_counts) == k
        assert stats == comment_stats_scalar(extractor, text)

    def test_edge_texts_match_scalar(self, private_analyzer, edge_texts):
        extractor = FeatureExtractor(private_analyzer, cache_size=0)
        for text in edge_texts:
            assert analyzed(extractor, text) == comment_stats_scalar(
                extractor, text
            )

    def test_comment_stats_many_matches_scalar(
        self, private_analyzer, boundary_batch
    ):
        extractor = FeatureExtractor(private_analyzer)
        batch = analyzed_many(extractor, boundary_batch)
        for text, stats in zip(boundary_batch, batch):
            assert stats == comment_stats_scalar(extractor, text)
        # Served from the cache, the same batch decodes the same.
        assert analyzed_many(extractor, boundary_batch) == batch


def _records(texts):
    return [
        SimpleNamespace(item_id=i // 4, comment_id=i, content=text)
        for i, text in enumerate(texts)
    ]


def _assert_rows_match_scalar(store, extractor, texts):
    interner = store.interner
    for row, text in enumerate(texts):
        expected = comment_stats_scalar(extractor, text)
        ids = store.token_ids(row)
        assert interner.decode(ids) == extractor.analyzer.segment(text)
        assert store.column("n_chars")[row] == len(text)
        for name in (
            "n_positive_distinct",
            "pos_neg_delta",
            "n_punctuation",
            "n_positive_bigrams",
            "sentiment",
            "entropy",
            "punctuation_ratio",
            "bigram_ratio_term",
        ):
            assert store.column(name)[row] == getattr(expected, name), name


class TestAppendBoundaries:
    @pytest.mark.parametrize("chunk_size", [3, 8192])
    def test_serial_store_matches_scalar(
        self, private_analyzer, boundary_batch, chunk_size
    ):
        extractor = FeatureExtractor(private_analyzer)
        store = ColumnarCommentStore(private_analyzer.interner)
        append_comments(
            store, extractor, _records(boundary_batch), chunk_size=chunk_size
        )
        _assert_rows_match_scalar(store, extractor, boundary_batch)

    @pytest.mark.parametrize("n_cpus", [2, 3])
    def test_parallel_store_matches_scalar(
        self, private_analyzer, boundary_batch, n_cpus
    ):
        extractor = FeatureExtractor(private_analyzer)
        store = ColumnarCommentStore(private_analyzer.interner)
        with executor(n_cpus):
            analyze_many(
                store, extractor, _records(boundary_batch), chunk_size=4
            )
        _assert_rows_match_scalar(store, extractor, boundary_batch)
