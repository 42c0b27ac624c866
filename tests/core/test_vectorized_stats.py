"""Bit-identity of the vectorized analysis path against the scalar
reference.

The interned fast path (``CommentStats.from_ids`` + batched NB
sentiment) must produce *exactly* the values of the original
string-based implementation, which is kept as
``tests.oracles.features.comment_stats_scalar``.  Every comparison here is
``==`` / ``np.array_equal`` -- no tolerances.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.features import FeatureExtractor, ItemAccumulator
from tests.oracles.features import comment_stats_scalar


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


def assert_stats_equal(actual, expected):
    """Field-exact CommentStats comparison with readable failures."""
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
            extractor.comment_stats(text),
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
            extractor.comment_stats(text),
            comment_stats_scalar(extractor, text),
        )

    def test_empty_comment(self, analyzer):
        extractor = FeatureExtractor(analyzer, cache_size=0)
        assert_stats_equal(
            extractor.comment_stats(""),
            comment_stats_scalar(extractor, ""),
        )

    def test_punctuation_only_comment(self, analyzer):
        extractor = FeatureExtractor(analyzer, cache_size=0)
        assert_stats_equal(
            extractor.comment_stats(",.!?"),
            comment_stats_scalar(extractor, ",.!?"),
        )

    def test_oov_only_comment(self, analyzer, language):
        text = _oov_char(language) * 3
        extractor = FeatureExtractor(analyzer, cache_size=0)
        assert_stats_equal(
            extractor.comment_stats(text),
            comment_stats_scalar(extractor, text),
        )

    def test_single_word_comment(self, analyzer, words):
        extractor = FeatureExtractor(analyzer, cache_size=0)
        stats = extractor.comment_stats(words[0])
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
        stats = extractor.comment_stats(text)
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
        batch = extractor.comment_stats_many(texts)
        assert len(batch) == len(texts)
        for text, stats in zip(texts, batch):
            assert_stats_equal(stats, comment_stats_scalar(extractor, text))

    def test_duplicates_share_the_cached_object(self, analyzer, language):
        texts = self._texts(language, n=5)
        extractor = FeatureExtractor(analyzer)
        batch = extractor.comment_stats_many(texts + texts)
        for first, second in zip(batch[:5], batch[5:]):
            assert first is second

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
