"""Per-comment extended features: the reference for
:class:`repro.core.extended_features.ExtendedFeatureExtractor`, which
reads them from an analyzed columnar store."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.extended_features import (
    _POSITIVE_SENTIMENT_CUTOFF,
    date_burstiness,
)
from repro.core.features import FeatureExtractor
from tests.oracles.features import ItemAccumulator, comment_stats_scalar


def extended_vector_scalar(
    extractor: FeatureExtractor,
    comments: Sequence[str],
    dates: Sequence[str] | None = None,
) -> np.ndarray:
    """Reference: one item's 15 extended features, comment by comment.

    The 11 Table II features fold the scalar reference statistics
    through an :class:`ItemAccumulator`; the four extended ones segment
    and score every comment once more in a Python loop.
    """
    accumulator = ItemAccumulator()
    for text in comments:
        accumulator.add(comment_stats_scalar(extractor, text))
    base = accumulator.to_vector()
    if len(comments) == 0:
        return np.concatenate([base, np.zeros(4)])

    max_length = 0
    positive_count = 0
    total_words = 0
    duplicate_words = 0
    for text in comments:
        words = extractor.analyzer.segment(text)
        max_length = max(max_length, len(words))
        total_words += len(words)
        duplicate_words += len(words) - len(set(words))
        if (
            extractor.analyzer.sentiment.score(words)
            >= _POSITIVE_SENTIMENT_CUTOFF
        ):
            positive_count += 1
    burst = date_burstiness(dates) if dates else 0.0
    extra = np.array(
        [
            float(max_length),
            positive_count / len(comments),
            burst,
            (duplicate_words / total_words) if total_words else 0.0,
        ]
    )
    return np.concatenate([base, extra])
