"""String-based per-comment analysis and its per-item fold: the
reference for :class:`repro.core.features.FeatureExtractor`'s chunk
kernel (``FeatureExtractor.comment_columns`` plus batched NB sentiment)
and for the streaming detector's running sums."""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.features import (
    N_FEATURES,
    SUMMED_COLUMNS,
    CommentColumns,
    FeatureExtractor,
    table2_rows,
)
from repro.core.interning import TokenInterner
from repro.text.ngrams import positive_bigram_count
from repro.text.stats import (
    comment_entropy,
    punctuation_count,
    punctuation_ratio,
)


@dataclass(frozen=True)
class CommentStats:
    """Everything one comment contributes to the Table II features, as
    one record: what the scalar reference computes, and what one row of
    a :class:`~repro.core.features.CommentColumns` batch decodes to."""

    #: Comment length in words (segmentation result).
    n_words: int
    #: Word -> occurrence count inside this comment.
    word_counts: Counter
    #: ``|C_j ^ P|`` -- distinct positive words.
    n_positive_distinct: int
    #: ``abs(|C_j ^ P| - |C_j ^ N|)``.
    pos_neg_delta: int
    #: Per-comment ``P(positive)``.
    sentiment: float
    #: Per-comment word entropy (nats).
    entropy: float
    #: Punctuation marks in the raw text.
    n_punctuation: int
    #: Punctuation marks per raw character.
    punctuation_ratio: float
    #: Contiguous 2-grams with a positive member.
    n_positive_bigrams: int
    #: ``#pos-2grams / (|C_j| - 1)`` (0.0 below two words).
    bigram_ratio_term: float


def comment_stats_scalar(
    extractor: FeatureExtractor, text: str
) -> CommentStats:
    """Reference implementation: per-word Python loops, no cache.

    This is the original scalar analysis path, kept as the ground
    truth the vectorized path is property-tested against (and the
    baseline the pipeline benchmark measures against).
    """
    words = extractor.analyzer.segment(text)
    word_set = set(words)
    positive = extractor.analyzer.lexicon.positive
    negative = extractor.analyzer.lexicon.negative
    n_pos = len(word_set & positive)
    n_neg = len(word_set & negative)
    n_bigrams_pos = positive_bigram_count(words, positive)
    return CommentStats(
        n_words=len(words),
        word_counts=Counter(words),
        n_positive_distinct=n_pos,
        pos_neg_delta=abs(n_pos - n_neg),
        sentiment=extractor.analyzer.sentiment.score(words),
        entropy=comment_entropy(words),
        n_punctuation=punctuation_count(text),
        punctuation_ratio=punctuation_ratio(text),
        n_positive_bigrams=n_bigrams_pos,
        bigram_ratio_term=(
            n_bigrams_pos / (len(words) - 1) if len(words) > 1 else 0.0
        ),
    )


def stats_of(
    batch: CommentColumns, interner: TokenInterner
) -> list[CommentStats]:
    """One :class:`CommentStats` per row of an analyzed batch, its words
    decoded through *interner* (the id space of *batch*'s tokens)."""
    words = interner.decode(batch.tokens.tolist())
    bounds = batch.offsets.tolist()
    values = zip(*(batch.columns[name].tolist() for name in SUMMED_COLUMNS))
    return [
        CommentStats(b - a, Counter(words[a:b]), *row)
        for a, b, row in zip(bounds, bounds[1:], values)
    ]


def assert_columns_identical(
    actual: CommentColumns, expected: CommentColumns
) -> None:
    """Two analyzed batches hold equal arrays of equal dtypes."""
    for name in ("tokens", "offsets"):
        left, right = getattr(actual, name), getattr(expected, name)
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), name
    assert list(actual.columns) == list(expected.columns)
    for name, column in expected.columns.items():
        assert actual.columns[name].dtype == column.dtype, name
        assert np.array_equal(actual.columns[name], column), name


@dataclass
class ItemAccumulator:
    """Reference fold: one item's running sums over its comments'
    :class:`CommentStats`, in Python arithmetic, comment by comment.

    :meth:`to_vector` is bit-identical to
    :meth:`FeatureExtractor.extract` of the same comments in order.
    """

    n_comments: int = 0
    sum_positive_distinct: int = 0
    sum_pos_neg_delta: int = 0
    total_words: int = 0
    #: Word -> total occurrences over all folded comments;
    #: ``len(word_counts)`` is the distinct-word count.
    word_counts: Counter = field(default_factory=Counter)
    sum_sentiment: float = 0.0
    sum_entropy: float = 0.0
    sum_punctuation: int = 0
    sum_punctuation_ratio: float = 0.0
    sum_positive_bigrams: int = 0
    sum_bigram_ratio_terms: float = 0.0

    def add(self, stats: CommentStats) -> None:
        """Fold one comment's statistics into the running sums."""
        self.n_comments += 1
        self.sum_positive_distinct += stats.n_positive_distinct
        self.sum_pos_neg_delta += stats.pos_neg_delta
        self.total_words += stats.n_words
        self.word_counts.update(stats.word_counts)
        self.sum_sentiment += stats.sentiment
        self.sum_entropy += stats.entropy
        self.sum_punctuation += stats.n_punctuation
        self.sum_punctuation_ratio += stats.punctuation_ratio
        self.sum_positive_bigrams += stats.n_positive_bigrams
        self.sum_bigram_ratio_terms += stats.bigram_ratio_term

    def add_many(self, stats_list: Sequence[CommentStats]) -> None:
        """Fold a batch of comment statistics, in order."""
        for stats in stats_list:
            self.add(stats)

    def sums(self) -> tuple:
        """This item's row of :func:`table2_rows` input."""
        return (
            self.n_comments, self.total_words, len(self.word_counts),
            self.sum_positive_distinct, self.sum_pos_neg_delta,
            self.sum_sentiment, self.sum_entropy, self.sum_punctuation,
            self.sum_punctuation_ratio, self.sum_positive_bigrams,
            self.sum_bigram_ratio_terms,
        )

    def to_vector(self) -> np.ndarray:
        """Current Table II feature vector; all-zero when empty."""
        return table2_rows(np.array([self.sums()], dtype=np.float64))[0]


def streamed_vector(stream, item_id: int) -> np.ndarray:
    """A :class:`~repro.core.streaming.StreamingDetector`'s current
    Table II row for a tracked item, read from its running sums."""
    sums = stream._items[item_id].table2_sums()
    return table2_rows(np.array([sums], dtype=np.float64))[0]


def table2_vector_scalar(accumulator: ItemAccumulator) -> np.ndarray:
    """Reference: the 11 Table II formulas on one accumulator's sums in
    Python arithmetic (``ItemAccumulator.to_vector`` before the formulas
    moved to :func:`repro.core.features.table2_rows`)."""
    n = accumulator.n_comments
    if n == 0:
        return np.zeros(N_FEATURES)
    return np.array(
        [
            accumulator.sum_positive_distinct / n,
            accumulator.sum_pos_neg_delta / n,
            (len(accumulator.word_counts) / accumulator.total_words)
            if accumulator.total_words
            else 0.0,
            accumulator.sum_sentiment / n,
            accumulator.sum_entropy / n,
            accumulator.total_words / n,
            float(accumulator.total_words),
            float(accumulator.sum_punctuation),
            accumulator.sum_punctuation_ratio / n,
            accumulator.sum_positive_bigrams / n,
            accumulator.sum_bigram_ratio_terms / n,
        ]
    )
