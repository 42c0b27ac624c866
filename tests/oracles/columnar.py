"""Per-row ``CommentStats`` rebuilt from a columnar store, for tests
that compare stored analyses with fresh ones."""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable

import numpy as np

from repro.core.columnar import ColumnarCommentStore
from repro.core.features import CommentStats


def rehydrate_stats(
    store: ColumnarCommentStore, rows: Iterable[int]
) -> list[CommentStats]:
    """Reconstruct :class:`CommentStats` for stored rows.

    Field-for-field equal to the objects the extractor produced at
    append time (``word_counts`` decoded through the interner), but
    built from columns -- no segmentation or sentiment model runs.
    """
    rows = np.asarray(list(rows), dtype=np.int64)
    offsets = store.offsets()
    tokens = store.tokens()
    columns = {
        name: np.asarray(store.column(name))
        for name in (
            "n_positive_distinct",
            "pos_neg_delta",
            "n_punctuation",
            "n_positive_bigrams",
            "sentiment",
            "entropy",
            "punctuation_ratio",
            "bigram_ratio_term",
        )
    }
    out = []
    for row in rows:
        ids = np.asarray(
            tokens[offsets[row] : offsets[row + 1]], dtype=np.int32
        )
        unique, counts = np.unique(ids, return_counts=True)
        word_counts = Counter(
            dict(
                zip(
                    store.interner.decode(unique),
                    (int(c) for c in counts),
                )
            )
        )
        out.append(
            CommentStats(
                n_words=int(ids.shape[0]),
                word_counts=word_counts,
                n_positive_distinct=int(
                    columns["n_positive_distinct"][row]
                ),
                pos_neg_delta=int(columns["pos_neg_delta"][row]),
                sentiment=float(columns["sentiment"][row]),
                entropy=float(columns["entropy"][row]),
                n_punctuation=int(columns["n_punctuation"][row]),
                punctuation_ratio=float(
                    columns["punctuation_ratio"][row]
                ),
                n_positive_bigrams=int(
                    columns["n_positive_bigrams"][row]
                ),
                bigram_ratio_term=float(
                    columns["bigram_ratio_term"][row]
                ),
                token_ids=ids,
            )
        )
    return out
