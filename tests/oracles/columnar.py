"""Per-row ``CommentStats`` rebuilt from a columnar store, for tests
that compare stored analyses with fresh ones."""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.core.columnar import STAT_COLUMN_NAMES, ColumnarCommentStore
from repro.core.features import CommentColumns
from repro.core.interning import gather_ranges
from tests.oracles.features import CommentStats, stats_of


def rehydrate_stats(
    store: ColumnarCommentStore, rows: Iterable[int]
) -> list[CommentStats]:
    """Reconstruct :class:`CommentStats` for stored rows.

    Field-for-field equal to the records the extractor's rows decode to
    at append time (``word_counts`` decoded through the interner), but
    built from columns -- no segmentation or sentiment model runs.
    """
    rows = np.asarray(list(rows), dtype=np.int64)
    offsets = np.asarray(store.offsets())
    starts, ends = offsets[rows], offsets[rows + 1]
    batch_offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(ends - starts, out=batch_offsets[1:])
    batch = CommentColumns(
        gather_ranges(np.asarray(store.tokens()), starts, ends),
        batch_offsets,
        {
            name: np.asarray(store.column(name))[rows]
            for name in STAT_COLUMN_NAMES
        },
    )
    return stats_of(batch, store.interner)
