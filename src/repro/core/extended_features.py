"""Extended feature set (the paper's Section VII future work).

The paper closes with "another future research direction is to identify
more useful features ... and optimize CATS' detector".  This module
implements that direction with four additional platform-independent
features computable from the same public comment data:

====  ========================  ==============================================
 idx  feature                   rationale
====  ========================  ==============================================
 11   maxCommentLength          promotion copy is long; one very long comment
                                is a stronger signal than a raised average
 12   positiveCommentFraction   fraction of comments whose sentiment >= 0.9;
                                campaigns saturate this, organic reviews don't
 13   dateBurstiness            largest fraction of comments falling in any
                                7-day window; campaigns run in bursts, organic
                                orders spread over months
 14   duplicateWordRatio        repeated-word mass across all comments
                                (promotional copy repeats selling points)
====  ========================  ==============================================

:class:`ExtendedFeatureExtractor` appends these to the paper's 11, so
the extended matrix is a strict superset and ablation comparisons are
column slices.  All but ``dateBurstiness`` (from the comment dates)
come from one analyzed columnar store, so each comment is analyzed once.
"""

from __future__ import annotations

from collections.abc import Sequence
from datetime import datetime

import numpy as np

from repro.core.analyzer import SemanticAnalyzer
from repro.core.features import FEATURE_NAMES, FeatureExtractor
from repro.core.interning import sort_pairs

EXTENDED_FEATURE_NAMES: tuple[str, ...] = FEATURE_NAMES + (
    "maxCommentLength",
    "positiveCommentFraction",
    "dateBurstiness",
    "duplicateWordRatio",
)

N_EXTENDED_FEATURES = len(EXTENDED_FEATURE_NAMES)

_BURST_WINDOW_SECONDS = 7 * 86_400
_POSITIVE_SENTIMENT_CUTOFF = 0.9
_BURST_COLUMN = EXTENDED_FEATURE_NAMES.index("dateBurstiness")


def date_burstiness(dates: Sequence[str]) -> float:
    """Largest fraction of timestamps inside any 7-day window.

    Accepts ``YYYY-MM-DD[ HH:MM:SS]`` strings; unparseable or missing
    dates are ignored.  Returns 0.0 when fewer than two timestamps
    parse (burstiness is meaningless for a single order).
    """
    stamps: list[float] = []
    for raw in dates:
        try:
            stamps.append(datetime.fromisoformat(raw).timestamp())
        except (ValueError, TypeError):
            continue
    if len(stamps) < 2:
        return 0.0
    stamps.sort()
    arr = np.asarray(stamps)
    # Two-pointer sweep: for each left edge, count comments within the
    # window; O(n) total.
    best = 0
    right = 0
    for left in range(len(arr)):
        if right < left:
            right = left
        while right + 1 < len(arr) and arr[right + 1] - arr[left] <= (
            _BURST_WINDOW_SECONDS
        ):
            right += 1
        best = max(best, right - left + 1)
    return best / len(arr)


def _store_extras(store, first: int, stop: int) -> np.ndarray:
    """The four extended columns of items ``first..stop-1`` (ids: list
    positions) of an analyzed store, from its offsets, sentiment column
    and distinct token ids per comment; ``dateBurstiness`` is left 0."""
    n_items = stop - first
    item = np.asarray(store.column("item_id")) - first
    n_words = np.diff(np.asarray(store.offsets()))
    rows = np.repeat(np.arange(len(item)), n_words)
    sorted_rows, _, edges = sort_pairs(np.asarray(store.tokens()), rows)
    distinct = np.bincount(sorted_rows[edges[:-1]], minlength=len(item))
    sentiment = np.asarray(store.column("sentiment"))
    longest = np.zeros(n_items)
    np.maximum.at(longest, item, n_words)
    n_comments, n_positive, total_words, n_repeats = (
        np.bincount(item, weights=w, minlength=n_items)
        for w in (
            None,
            sentiment >= _POSITIVE_SENTIMENT_CUTOFF,
            n_words,
            n_words - distinct,  # repeated words
        )
    )
    return np.column_stack(
        [
            longest,
            n_positive / np.maximum(n_comments, 1.0),
            np.zeros(n_items),
            n_repeats / np.maximum(total_words, 1.0),
        ]
    )


class ExtendedFeatureExtractor(FeatureExtractor):
    """The 11 Table II features plus the four extended features.

    Items must expose comment *records* (content + date) for the
    temporal feature; plain strings still work, with ``dateBurstiness``
    fixed at 0.0.
    """

    def __init__(self, analyzer: SemanticAnalyzer) -> None:
        super().__init__(analyzer, cache_size=None)  # reads stores only

    def extract_extended(
        self,
        comments: Sequence[str],
        dates: Sequence[str] | None = None,
    ) -> np.ndarray:
        """Extended feature vector for one item."""
        return self._extended_matrix([comments], [dates])[0]

    def extract_items(self, items: Sequence) -> np.ndarray:
        """Extended feature matrix for comment-record-bearing items.

        Works with :class:`~repro.ecommerce.entities.Item` and
        :class:`~repro.collector.records.CrawledItem`, whose comments
        carry ``date`` fields.
        """
        return self._extended_matrix(
            [item.comment_texts for item in items],
            [
                [getattr(comment, "date", "") for comment in item.comments]
                for item in items
            ],
        )

    def _extended_matrix(
        self,
        comment_lists: Sequence[Sequence[str]],
        date_lists: Sequence[Sequence[str] | None],
    ) -> np.ndarray:
        blocks = [
            np.hstack(
                [
                    store.feature_matrix(range(first, stop)),
                    _store_extras(store, first, stop),
                ]
            )
            for store, first, stop in self._analyzed_stores(comment_lists)
        ]
        if not blocks:
            return np.zeros((0, N_EXTENDED_FEATURES))
        matrix = np.vstack(blocks)
        matrix[:, _BURST_COLUMN] = [
            date_burstiness(dates) if len(comments) and dates else 0.0
            for comments, dates in zip(comment_lists, date_lists)
        ]
        return matrix
