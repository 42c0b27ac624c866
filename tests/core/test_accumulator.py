"""Tests for the incremental feature fold.

The load-bearing invariant: folding comments' analyzed rows
(:class:`~repro.core.features.CommentColumns`) into an item's running
sums in order, as :class:`~repro.core.streaming.StreamingDetector`
does, produces a vector *exactly* equal (bit-identical, not
approximately) to batch ``FeatureExtractor.extract`` over the same
list.  The streaming detector's claim that incremental scores equal
batch scores rests on it.  The Table II formulas are checked against
Python arithmetic on the reference fold in ``tests/oracles/features.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from collections import Counter

from repro.collector.records import CommentRecord
from repro.core.features import (
    FEATURE_NAMES,
    N_FEATURES,
    SUMMED_COLUMNS,
    table2_rows,
)
from repro.core.streaming import StreamingDetector
from tests.oracles.features import ItemAccumulator, table2_vector_scalar


@pytest.fixture(scope="module")
def extractor(trained_cats):
    return trained_cats.feature_extractor


@pytest.fixture(scope="module")
def comment_alphabet(language):
    """Characters of real dictionary words plus punctuation and an OOV
    letter, so random texts exercise known-word, OOV and punctuation
    segmentation paths alike."""
    chars: set[str] = set()
    for word in list(language.dictionary_weights())[:40]:
        chars.update(word)
    return sorted(chars) + ["!", ",", ".", "?"]


def comment_lists(alphabet):
    return st.lists(
        st.text(alphabet=alphabet, min_size=0, max_size=24),
        min_size=0,
        max_size=8,
    )


def streamed_rows(cats, chunks):
    """Feed one item its comments chunk by chunk; after each chunk,
    score it -- folding the whole chunk in one batch -- and read its
    Table II row from the running sums."""
    stream = StreamingDetector(
        cats, rescore_growth=1e9, min_comments_to_score=1
    )
    rows = []
    n = 0
    for chunk in chunks:
        for text in chunk:
            stream.observe(
                CommentRecord(1, n, text, "user", 1, "pc", "2020-01-01")
            )
            n += 1
        if n:
            stream.force_rescore(1)
            state = stream._items[1]
            assert state.n_accumulated == n
            sums = np.array([state.table2_sums()], dtype=np.float64)
            rows.append(table2_rows(sums)[0])
        else:
            rows.append(np.zeros(N_FEATURES))
    return rows


class TestCommentStats:
    def test_single_analysis_matches_extract(self, trained_cats, extractor):
        text = "haoping! zan"
        [row] = streamed_rows(trained_cats, [[text]])
        np.testing.assert_array_equal(row, extractor.extract([text]))

    def test_bigram_ratio_term_guard(self, extractor):
        # A single-word comment has no bigrams and a zero ratio term.
        batch = extractor.comment_stats("haoping")
        assert batch.columns["n_positive_bigrams"].tolist() == [0]
        assert batch.columns["bigram_ratio_term"].tolist() == [0.0]


class TestItemAccumulator:
    def test_empty_is_zero_vector(self, trained_cats):
        np.testing.assert_array_equal(
            ItemAccumulator().to_vector(), np.zeros(N_FEATURES)
        )
        np.testing.assert_array_equal(
            streamed_rows(trained_cats, [[]])[0], np.zeros(N_FEATURES)
        )


@st.composite
def accumulators(draw):
    """Accumulators with arbitrary sums that any fold could reach: the
    empty one, and word totals that match their word multiset."""
    n_comments = draw(st.integers(0, 10**4))
    if n_comments == 0:
        return ItemAccumulator()
    count = st.integers(0, 10**6)
    fraction = st.floats(0.0, 1e6)
    word_counts = Counter(
        draw(
            st.dictionaries(
                st.text(max_size=3), st.integers(1, 10**4), max_size=6
            )
        )
    )
    return ItemAccumulator(
        n_comments=n_comments,
        sum_positive_distinct=draw(count),
        sum_pos_neg_delta=draw(count),
        total_words=sum(word_counts.values()),
        word_counts=word_counts,
        sum_sentiment=draw(fraction),
        sum_entropy=draw(fraction),
        sum_punctuation=draw(count),
        sum_punctuation_ratio=draw(fraction),
        sum_positive_bigrams=draw(count),
        sum_bigram_ratio_terms=draw(fraction),
    )


class TestOneFormula:
    @settings(max_examples=200, deadline=None)
    @given(accumulator=accumulators())
    def test_to_vector_equals_python_formulas(self, accumulator):
        assert np.array_equal(
            accumulator.to_vector(), table2_vector_scalar(accumulator)
        )

    @settings(max_examples=50, deadline=None)
    @given(batch=st.lists(accumulators(), max_size=6))
    def test_one_call_equals_one_row_at_a_time(self, batch):
        sums = np.array([a.sums() for a in batch], dtype=np.float64)
        rows = table2_rows(sums.reshape(-1, 3 + len(SUMMED_COLUMNS)))
        assert rows.shape == (len(batch), N_FEATURES)
        for row, accumulator in zip(rows, batch):
            assert np.array_equal(row, accumulator.to_vector())


class TestIncrementalEqualsBatch:
    """The acceptance property: exact equality on random inputs."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_fold_in_order_is_bit_identical(
        self, data, trained_cats, extractor, comment_alphabet
    ):
        comments = data.draw(comment_lists(comment_alphabet))
        [row] = streamed_rows(trained_cats, [comments])
        np.testing.assert_array_equal(row, extractor.extract(comments))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_chunked_folding_with_interleaved_reads(
        self, data, trained_cats, extractor, comment_alphabet
    ):
        """Reads between folds neither mutate state nor drift: every
        prefix row equals batch extraction of that prefix."""
        comments = data.draw(comment_lists(comment_alphabet))
        chunks = []
        folded = 0
        while folded < len(comments):
            step = data.draw(
                st.integers(min_value=1, max_value=len(comments) - folded)
            )
            chunks.append(comments[folded : folded + step])
            folded += step
        prefix = 0
        for chunk, row in zip(chunks, streamed_rows(trained_cats, chunks)):
            prefix += len(chunk)
            np.testing.assert_array_equal(
                row, extractor.extract(comments[:prefix])
            )

    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_vector_is_finite_and_named(
        self, data, extractor, comment_alphabet
    ):
        comments = data.draw(comment_lists(comment_alphabet))
        vec = extractor.extract(comments)
        assert vec.shape == (len(FEATURE_NAMES),)
        assert np.all(np.isfinite(vec))
