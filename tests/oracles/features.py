"""String-based per-comment analysis: the reference for
:class:`repro.core.features.FeatureExtractor`'s chunk kernel
(``FeatureExtractor.comment_columns`` plus batched NB sentiment)."""

from __future__ import annotations

from collections import Counter

from repro.core.features import CommentStats, FeatureExtractor
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
