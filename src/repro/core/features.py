"""The 11-feature extractor (paper Table II), incremental and parallel.

Given one item's comments, the extractor produces:

====  ================================  =======================================
 idx  feature                           definition (paper Section II-A)
====  ================================  =======================================
  0   averagePositiveNumber             sum_j |C_j ^ P| / |C_i|
  1   averagePositive/NegativeNumber    sum_j abs(|C_j ^ P| - |C_j ^ N|) / |C_i|
  2   uniqueWordRatio                   #unique words / #words over all comments
  3   averageSentiment                  mean per-comment P(positive)
  4   averageCommentEntropy             mean per-comment word entropy
  5   averageCommentLength              mean comment length in words
  6   sumCommentLength                  total comment length in words
  7   sumPunctuationNumber              total punctuation marks
  8   averagePunctuationRatio           mean per-comment punctuation/char ratio
  9   averageNgramNumber                sum_j #positive-2grams(C_j) / |C_i|
 10   averageNgramRatio                 sum_j #pos-2grams / (|C_i| * (|C_j|-1))
====  ================================  =======================================

``|C_j ^ P|`` counts *distinct* positive words in comment j, following
the paper's set notation.  A positive 2-gram is a contiguous word pair
with at least one member in P.

All features are computed from the raw comment text plus its
segmentation; the semantic analyzer supplies segmentation, lexicons and
sentiment.

Incremental computation
-----------------------

Every feature above is decomposable into per-comment statistics plus
per-item sums over them:

* :meth:`FeatureExtractor.comment_columns` is the one implementation of
  those statistics: a chunk kernel that turns a batch of texts into
  :class:`CommentColumns`, the columnar store's payload (interned token
  arena, offsets and the nine stat columns), with array operations over
  the whole batch.  It is the only representation of an analyzed
  comment: :meth:`FeatureExtractor.comment_stats_many` returns the same
  columns, serving cached rows where it can;
* :func:`table2_rows` is the one implementation of the 11 formulas over
  the per-item sums;
* batch extraction sums a store's columns
  (:meth:`~repro.core.columnar.ColumnarCommentStore.feature_matrix`);
  the streaming detector folds each scored batch's rows into its items'
  running sums as comments arrive (:mod:`repro.core.streaming`).

Both add each item's float values left to right from 0.0 in comment
order, so batch and incremental rows are *bit-identical* -- the
invariant the streaming detector relies on.

Batches
-------

``extract_many``/``extract_items`` analyze the batch into in-memory
columnar stores on the :mod:`repro.core.parallel_analysis` engine and
read each store's ``feature_matrix``; the matrix, interner and
segmentation count equal the serial run's on any number of CPUs.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from repro.core.analysis_cache import AnalysisCache, CacheInfo
from repro.core.analyzer import SemanticAnalyzer
from repro.core.interning import (
    TokenInterner,
    gather_ranges,
    sort_pairs,
)
from repro.text.tokenizer import PUNCTUATION

#: Feature names in column order, spelled as in the paper.
FEATURE_NAMES: tuple[str, ...] = (
    "averagePositiveNumber",
    "averagePositive/NegativeNumber",
    "uniqueWordRatio",
    "averageSentiment",
    "averageCommentEntropy",
    "averageCommentLength",
    "sumCommentLength",
    "sumPunctuationNumber",
    "averagePunctuationRatio",
    "averageNgramNumber",
    "averageNgramRatio",
)

N_FEATURES = len(FEATURE_NAMES)

#: Punctuation membership by code point; the last entry (``False``)
#: stands for every code point past the table.
_IS_PUNCTUATION = np.zeros(max(map(ord, PUNCTUATION)) + 2, dtype=bool)
_IS_PUNCTUATION[[ord(char) for char in PUNCTUATION]] = True


#: The chunk kernel's stat columns and their dtypes, in store order.
STAT_COLUMN_DTYPES: dict[str, type] = {
    "n_chars": np.int32,
    "n_positive_distinct": np.int32,
    "pos_neg_delta": np.int32,
    "n_punctuation": np.int32,
    "n_positive_bigrams": np.int32,
    "sentiment": np.float64,
    "entropy": np.float64,
    "punctuation_ratio": np.float64,
    "bigram_ratio_term": np.float64,
}

#: Stat columns an item's features sum, in the order of their sums in
#: :func:`table2_rows`.
SUMMED_COLUMNS: tuple[str, ...] = (
    "n_positive_distinct",
    "pos_neg_delta",
    "sentiment",
    "entropy",
    "n_punctuation",
    "punctuation_ratio",
    "n_positive_bigrams",
    "bigram_ratio_term",
)


@dataclass(frozen=True, eq=False)
class CommentColumns:
    """A batch of analyzed comments, one row per input text.

    Exactly the payload :meth:`ColumnarCommentStore.append_arrays
    <repro.core.columnar.ColumnarCommentStore.append_arrays>` takes
    after the identity columns: the interned ``int32`` token arena, its
    ``int64`` offsets (length ``n + 1``, starting at 0; row ``i``'s word
    count is ``offsets[i + 1] - offsets[i]``) and one array per
    :data:`STAT_COLUMN_DTYPES` entry, of that dtype.  ``len()`` is the
    number of rows.
    """

    tokens: np.ndarray
    offsets: np.ndarray
    columns: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.offsets) - 1


def table2_rows(sums: np.ndarray) -> np.ndarray:
    """Table II rows from per-item sums; the one place the formulas live.

    *sums* is an ``(n_items, 11)`` ``float64`` matrix: each item's
    comment count, word total and distinct-word count, then one sum per
    :data:`SUMMED_COLUMNS` entry.  Each output is one IEEE operation on
    the sums, so callers whose sums agree get bit-identical rows; an
    item without comments (all sums 0) gets the all-zero row.
    """
    n = np.maximum(sums[:, :1], 1.0)
    words = sums[:, 1:2]
    means = sums[:, 3:] / n
    return np.hstack(
        [
            means[:, 0:2],  # positive words, positive/negative delta
            # No words means no distinct words: 0 / 1.
            sums[:, 2:3] / np.maximum(words, 1.0),
            means[:, 2:4],  # sentiment, entropy
            words / n,
            words,
            sums[:, 7:8],  # punctuation marks: a sum, not a mean
            means[:, 5:8],  # punctuation ratio, bigrams, bigram ratio
        ]
    )


def _rows(batch: CommentColumns) -> list[tuple]:
    """Each row of *batch* as an analysis-cache entry: its token slice
    and a tuple of its :data:`STAT_COLUMN_DTYPES` values."""
    bounds = batch.offsets.tolist()
    columns = batch.columns
    values = zip(*(columns[name].tolist() for name in STAT_COLUMN_DTYPES))
    return [
        (batch.tokens[a:b], row)
        for a, b, row in zip(bounds, bounds[1:], values)
    ]


def _stack(rows: Sequence[tuple]) -> CommentColumns:
    """One batch from a non-empty list of :func:`_rows` entries."""
    offsets = np.fromiter(
        accumulate((len(tokens) for tokens, _ in rows), initial=0),
        dtype=np.int64,
        count=len(rows) + 1,
    )
    values = zip(*(row for _, row in rows))
    return CommentColumns(
        np.concatenate([tokens for tokens, _ in rows]),
        offsets,
        {
            name: np.array(column, dtype=dtype)
            for (name, dtype), column in zip(
                STAT_COLUMN_DTYPES.items(), values
            )
        },
    )


#: Default bound on the shared per-comment analysis cache.
DEFAULT_CACHE_SIZE = 32768

#: Comments per in-memory store in batch extraction.  Bounds peak
#: memory; a larger store saves little time (one worker pool per store).
BATCH_STORE_COMMENTS = 65536

#: One comment of an extraction batch, as the store path reads it.
_BatchComment = namedtuple("_BatchComment", "item_id comment_id content")


class FeatureExtractor:
    """Computes the Table II feature vector for items.

    Parameters
    ----------
    analyzer:
        A trained :class:`~repro.core.analyzer.SemanticAnalyzer`
        providing segmentation, the P/N lexicons and sentiment scores.
    cache_size:
        Bound on the shared LRU analysis cache keyed by raw comment
        text (see :mod:`repro.core.analysis_cache`) that
        :meth:`comment_stats_many` consults.  ``None`` or ``0``
        disables caching (each comment is re-analyzed every time).

    The per-comment analysis is one chunk kernel,
    :meth:`comment_columns`: segmentations are interned to one
    ``int32`` arena, and lexicon membership, entropy, punctuation and
    sentiment are array operations over the whole batch.  The original
    string-based implementation is kept as the bit-identical reference
    in ``tests/oracles/features.py``.
    """

    def __init__(
        self,
        analyzer: SemanticAnalyzer,
        cache_size: int | None = DEFAULT_CACHE_SIZE,
    ) -> None:
        self.analyzer = analyzer
        self._cache = AnalysisCache(cache_size) if cache_size else None
        #: Interner the cache contents were computed under; when the
        #: analyzer hands out a *different* interner (its resources
        #: were replaced), every cached entry is stale and dropped.
        self._cache_interner: TokenInterner | None = None

    # -- cache plumbing ----------------------------------------------------

    def _interner(self) -> TokenInterner:
        """Current interner; clears the cache on analysis-version change."""
        interner = self.analyzer.interner
        if interner is not self._cache_interner:
            if self._cache is not None:
                self._cache.clear()
            self._cache_interner = interner
        return interner

    def cache_info(self) -> CacheInfo | None:
        """Analysis-cache counters, or ``None`` when caching is off."""
        return self._cache.info() if self._cache is not None else None

    def clear_cache(self) -> None:
        """Drop every cached per-comment analysis."""
        if self._cache is not None:
            self._cache.clear()

    # -- per-comment statistics -------------------------------------------

    def comment_columns(self, texts: Sequence[str]) -> CommentColumns:
        """Analyze a batch of raw comments into columns, one row per text.

        The one implementation of the per-comment statistics.  Each
        distinct text (first occurrence wins) is segmented once and
        interned in that order, the batch's sentiment is one NB call,
        and duplicates get their rows by a gather.  The columns come
        from array operations over the whole batch and equal the scalar
        reference (``tests/oracles/features.py``) bit for bit: counts
        are exact, ratios are true divisions of exact integers, and a
        comment's entropy is its sorted ``p log p`` row reduced by
        ``.sum(axis=1)`` in a block of comments with as many distinct
        words -- numpy's pairwise order for a vector of that length,
        the order :func:`repro.text.stats.entropy_from_counts` sums in.
        Reads and writes no analysis cache.
        """
        analyzer = self.analyzer
        first: dict[str, int] = {}
        rows = np.fromiter(
            (first.setdefault(text, len(first)) for text in texts),
            dtype=np.int64,
            count=len(texts),
        )
        distinct = list(first)
        n = len(distinct)
        segmented = [analyzer.segment(text) for text in distinct]
        interner = analyzer.interner
        tokens = interner.encode([w for words in segmented for w in words])
        n_words = np.fromiter(map(len, segmented), dtype=np.int64, count=n)
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(n_words, out=offsets[1:])
        bounds = offsets.tolist()
        sentiment_ids = interner.sentiment_ids[tokens]
        sentiment = analyzer.sentiment.score_ids_many(
            [sentiment_ids[a:b] for a, b in zip(bounds, bounds[1:])]
        )

        seg = np.repeat(np.arange(n), n_words)
        sorted_seg, sorted_tokens, edges = sort_pairs(tokens, seg)
        starts = edges[:-1]
        pair_seg, pair_tokens = sorted_seg[starts], sorted_tokens[starts]
        pair_counts = edges[1:] - starts
        positive = interner.positive_mask
        n_pos = np.bincount(pair_seg[positive[pair_tokens]], minlength=n)
        n_neg = np.bincount(
            pair_seg[interner.negative_mask[pair_tokens]], minlength=n
        )
        hits = positive[tokens]
        bigram = (hits[1:] | hits[:-1]) & (seg[1:] == seg[:-1])
        n_bigrams = np.bincount(seg[1:][bigram], minlength=n)

        # Entropy: pairs grouped by distinct-word count k, then comment,
        # then count ascending, so each k-block reshapes to (m, k) and
        # its row sums follow numpy's pairwise order for k terms, as
        # entropy_from_counts does; a sequential or reduceat sum would
        # round differently from 8 terms on.
        n_distinct = np.bincount(pair_seg, minlength=n)
        order = np.lexsort((pair_counts, pair_seg, n_distinct[pair_seg]))
        p = pair_counts[order] / n_words[pair_seg[order]]
        terms = p * np.log(p)
        sizes = np.bincount(n_distinct)
        sums = np.empty(n)
        row = pos = 0
        for k in np.flatnonzero(sizes).tolist():
            m = int(sizes[k])
            block = terms[pos : pos + m * k].reshape(m, k)
            block.sum(axis=1, out=sums[row : row + m])
            row, pos = row + m, pos + m * k
        entropy = np.empty(n)
        entropy[np.argsort(n_distinct, kind="stable")] = -sums + 0.0

        n_chars = np.fromiter(map(len, distinct), dtype=np.int64, count=n)
        codes = np.frombuffer(
            "".join(distinct).encode("utf-32-le", "surrogatepass"),
            dtype=np.uint32,
        )
        punct = _IS_PUNCTUATION[np.minimum(codes, len(_IS_PUNCTUATION) - 1)]
        n_punct = np.bincount(
            np.repeat(np.arange(n), n_chars)[punct], minlength=n
        )

        columns = {
            "n_chars": n_chars.astype(np.int32),
            "n_positive_distinct": n_pos.astype(np.int32),
            "pos_neg_delta": np.abs(n_pos - n_neg).astype(np.int32),
            "n_punctuation": n_punct.astype(np.int32),
            "n_positive_bigrams": n_bigrams.astype(np.int32),
            "sentiment": sentiment,
            "entropy": entropy,
            # Numerators are 0 where the clamped denominators kick in.
            "punctuation_ratio": n_punct / np.maximum(n_chars, 1),
            "bigram_ratio_term": n_bigrams / np.maximum(n_words - 1, 1),
        }
        if n < len(texts):
            tokens = gather_ranges(tokens, offsets[rows], offsets[rows + 1])
            offsets = np.zeros(len(rows) + 1, dtype=np.int64)
            np.cumsum(n_words[rows], out=offsets[1:])
            columns = {name: col[rows] for name, col in columns.items()}
        return CommentColumns(tokens, offsets, columns)

    def comment_stats(self, text: str) -> CommentColumns:
        """Analyze one raw comment: ``comment_stats_many([text])``."""
        return self.comment_stats_many([text])

    def comment_stats_many(self, texts: Sequence[str]) -> CommentColumns:
        """Analyze a batch through the shared cache, one row per text.

        Returns what :meth:`comment_columns` returns for *texts*: texts
        the analysis cache holds are served from it, the distinct misses
        run through :meth:`comment_columns` once, and each miss's row
        (its token slice and stat values) is cached.  The streaming,
        serving and shadow scoring paths come through here; the batch
        paths (:func:`repro.core.columnar.append_comments`,
        ``extract_many``) do not.
        """
        self._interner()
        cache = self._cache
        if cache is None or not texts:
            return self.comment_columns(texts)
        rows: dict[str, tuple] = {}
        misses: dict[str, None] = {}
        for text in texts:
            if text in misses:
                continue
            row = cache.get(text)
            if row is None:
                misses[text] = None
            else:
                rows[text] = row
        if misses:
            batch = self.comment_columns(list(misses))
            for text, row in zip(misses, _rows(batch)):
                cache.put(text, row)
                rows[text] = row
            if len(misses) == len(texts):
                return batch
        return _stack([rows[text] for text in texts])

    # -- batches -----------------------------------------------------------

    def _analyzed_stores(self, comment_lists: Sequence[Sequence[str]]):
        """Yield ``(store, first, stop)``: items ``first..stop-1``, ids
        their list positions, analyzed into an in-memory store of at
        most :data:`BATCH_STORE_COMMENTS` comments (or one larger item)
        by :func:`~repro.core.parallel_analysis.analyze_many`, whose
        workers' vocabulary and segmentation counts merge back.  No
        analysis cache is read or written."""
        from repro.core.columnar import ColumnarCommentStore
        from repro.core.parallel_analysis import analyze_many

        stop = 0
        while stop < len(comment_lists):
            first, records = stop, []
            while stop < len(comment_lists) and (
                not records
                or len(records) + len(comment_lists[stop])
                <= BATCH_STORE_COMMENTS
            ):
                for text in comment_lists[stop]:
                    records.append(_BatchComment(stop, len(records), text))
                stop += 1
            store = ColumnarCommentStore(self.analyzer.interner)
            analyze_many(store, self, records)
            yield store, first, stop

    def extract(self, comments: Sequence[str]) -> np.ndarray:
        """Feature vector for one item given its raw comment texts.

        An item with no comments yields the all-zero vector (such items
        are normally removed by the rule filter first).
        """
        return self.extract_many([comments])[0]

    def extract_many(
        self, comment_lists: Sequence[Sequence[str]]
    ) -> np.ndarray:
        """Feature matrix for a batch of items (rows follow input order),
        one comment-text list per item.  The analysis runs on the
        executor's workers (see :mod:`repro.parallel`); any worker count
        gives the serial run's matrix and interner.
        """
        blocks = [
            store.feature_matrix(range(first, stop))
            for store, first, stop in self._analyzed_stores(comment_lists)
        ]
        return np.vstack(blocks) if blocks else np.zeros((0, N_FEATURES))

    def extract_items(self, items: Sequence) -> np.ndarray:
        """Feature matrix for objects exposing ``comment_texts``.

        Works with both :class:`repro.ecommerce.entities.Item` and
        :class:`repro.collector.records.CrawledItem`.
        """
        return self.extract_many([item.comment_texts for item in items])
