"""String-based per-comment analysis: the reference for
:class:`repro.core.features.FeatureExtractor`'s chunk kernel
(``FeatureExtractor.comment_columns`` plus batched NB sentiment)."""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.core.features import (
    N_FEATURES,
    CommentStats,
    FeatureExtractor,
    ItemAccumulator,
)
from repro.text.ngrams import positive_bigram_count
from repro.text.stats import (
    comment_entropy,
    punctuation_count,
    punctuation_ratio,
)


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
