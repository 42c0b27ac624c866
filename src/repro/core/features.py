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
running sums over them:

* :meth:`FeatureExtractor.comment_columns` is the one implementation of
  those statistics: a chunk kernel that turns a batch of texts into the
  columnar store's payload (interned token arena, offsets and the nine
  stat columns) with array operations over the whole batch;
* :class:`CommentStats` captures everything a single comment contributes
  (one segmentation + one sentiment call, computed exactly once), built
  from the kernel's columns for the streaming and serving paths;
* :class:`ItemAccumulator` folds ``CommentStats`` into running sums (and
  a unique-word multiset) so that :meth:`ItemAccumulator.to_vector` is
  O(1) after O(new comments) updates.

``FeatureExtractor.extract`` itself is implemented on top of the
accumulator, so batch and incremental extraction are *bit-identical* by
construction when comments are folded in the same order -- the invariant
the streaming detector relies on (see :mod:`repro.core.streaming`).

Parallel batches
----------------

``extract_many``/``extract_items`` accept an opt-in ``n_workers``
parameter.  When the :mod:`repro.parallel` executor grants more than
one worker, the item batch is split into one contiguous chunk per
worker; each worker clones the extractor once and returns its chunk's
feature rows.  Rows are computed independently, so the resulting matrix
equals the serial result exactly.  The default stays serial (spawning
processes is not worth it for small batches).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.core.analysis_cache import AnalysisCache, CacheInfo
from repro.core.analyzer import SemanticAnalyzer
from repro.core.interning import (
    TokenInterner,
    gather_ranges,
    sort_pairs,
)
from repro.parallel import effective_workers, map_ordered, worker_state
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


class CommentColumns(NamedTuple):
    """A batch of analyzed comments, one row per input text.

    Exactly the payload :meth:`ColumnarCommentStore.append_arrays
    <repro.core.columnar.ColumnarCommentStore.append_arrays>` takes
    after the identity columns: the interned ``int32`` token arena, its
    ``int64`` offsets (length ``n + 1``, starting at 0) and one array
    per :data:`~repro.core.columnar.STAT_COLUMN_NAMES` entry.
    """

    tokens: np.ndarray
    offsets: np.ndarray
    columns: dict[str, np.ndarray]


@dataclass(frozen=True)
class CommentStats:
    """Everything one comment contributes to the Table II features.

    Computing these costs one segmentation and one sentiment call; the
    values are immutable afterwards, so a comment is analyzed exactly
    once however often its item is (re-)scored.
    """

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
    #: ``#pos-2grams / (|C_j| - 1)`` -- the per-comment ngram-ratio
    #: term (0.0 for comments shorter than two words).
    bigram_ratio_term: float
    #: The interned segmentation behind these stats (``int32``), kept
    #: so downstream sinks (the columnar comment store) can persist the
    #: token arena without re-segmenting.  ``None`` on the scalar
    #: reference path; excluded from equality so cached stats compare
    #: by analysis result.
    token_ids: np.ndarray | None = field(
        default=None, compare=False, repr=False
    )


#: :class:`CommentStats` fields read straight from a stat column, in
#: field order.
_COLUMN_FIELDS: tuple[str, ...] = (
    "n_positive_distinct",
    "pos_neg_delta",
    "sentiment",
    "entropy",
    "n_punctuation",
    "punctuation_ratio",
    "n_positive_bigrams",
    "bigram_ratio_term",
)


def stats_from_columns(
    batch: CommentColumns, interner: TokenInterner
) -> list[CommentStats]:
    """One :class:`CommentStats` per row of an analyzed batch.

    *batch*'s token ids must be in *interner*'s id space; ``token_ids``
    are views into the batch arena.
    """
    tokens, offsets, columns = batch
    words = interner.decode(tokens.tolist())
    bounds = offsets.tolist()
    values = zip(*(columns[name].tolist() for name in _COLUMN_FIELDS))
    return [
        CommentStats(b - a, Counter(words[a:b]), *row, token_ids=tokens[a:b])
        for a, b, row in zip(bounds, bounds[1:], values)
    ]


@dataclass
class ItemAccumulator:
    """Running sums behind one item's feature vector.

    Fold comments in with :meth:`add`; read the current Table II vector
    with :meth:`to_vector` in O(1).  Folding the same comments in the
    same order as a batch :meth:`FeatureExtractor.extract` call yields a
    bit-identical vector (running sums see the identical float-addition
    sequence).
    """

    n_comments: int = 0
    sum_positive_distinct: int = 0
    sum_pos_neg_delta: int = 0
    total_words: int = 0
    #: Unique-word multiset: word -> total occurrences over all folded
    #: comments.  ``len(word_counts)`` is the distinct-word count; the
    #: multiset (rather than a set) keeps :meth:`remove` well-defined.
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

    def remove(self, stats: CommentStats) -> None:
        """Unfold one previously-added comment (e.g. a deleted review).

        Integer counts are exact; float sums are reversed arithmetically,
        which can differ from a fresh accumulation by rounding noise --
        the bit-identity invariant only covers append-only use.
        """
        if self.n_comments == 0:
            raise ValueError("cannot remove from an empty accumulator")
        self.n_comments -= 1
        self.sum_positive_distinct -= stats.n_positive_distinct
        self.sum_pos_neg_delta -= stats.pos_neg_delta
        self.total_words -= stats.n_words
        for word, count in stats.word_counts.items():
            remaining = self.word_counts[word] - count
            if remaining > 0:
                self.word_counts[word] = remaining
            else:
                del self.word_counts[word]
        self.sum_sentiment -= stats.sentiment
        self.sum_entropy -= stats.entropy
        self.sum_punctuation -= stats.n_punctuation
        self.sum_punctuation_ratio -= stats.punctuation_ratio
        self.sum_positive_bigrams -= stats.n_positive_bigrams
        self.sum_bigram_ratio_terms -= stats.bigram_ratio_term

    @property
    def n_unique_words(self) -> int:
        """Distinct words over all folded comments."""
        return len(self.word_counts)

    def to_vector(self) -> np.ndarray:
        """Current Table II feature vector; all-zero when empty."""
        n = self.n_comments
        if n == 0:
            return np.zeros(N_FEATURES)
        return np.array(
            [
                self.sum_positive_distinct / n,
                self.sum_pos_neg_delta / n,
                (len(self.word_counts) / self.total_words)
                if self.total_words
                else 0.0,
                self.sum_sentiment / n,
                self.sum_entropy / n,
                self.total_words / n,
                float(self.total_words),
                float(self.sum_punctuation),
                self.sum_punctuation_ratio / n,
                self.sum_positive_bigrams / n,
                self.sum_bigram_ratio_terms / n,
            ]
        )


#: Default bound on the shared per-comment analysis cache.
DEFAULT_CACHE_SIZE = 32768


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

    def comment_stats(self, text: str) -> CommentStats:
        """Analyze one raw comment: ``comment_stats_many([text])[0]``."""
        return self.comment_stats_many([text])[0]

    def comment_stats_many(self, texts: Sequence[str]) -> list[CommentStats]:
        """Per-comment statistics for a batch, in input order.

        Texts the shared analysis cache holds are served from it; the
        distinct misses run through :meth:`comment_columns` once, and
        their objects are built from its columns and cached.  Duplicate
        texts share one object.  The streaming, serving and
        ``extract_many`` paths come through here; the batch store path
        (:func:`repro.core.columnar.append_comments`) does not.
        """
        interner = self._interner()
        cache = self._cache
        results: list[CommentStats | None] = [None] * len(texts)
        misses: dict[str, None] = {}
        for i, text in enumerate(texts):
            if text in misses:
                continue
            cached = cache.get(text) if cache is not None else None
            if cached is None:
                misses[text] = None
            else:
                results[i] = cached
        if not misses:
            return results  # type: ignore[return-value]
        batch = self.comment_columns(list(misses))
        fresh = dict(zip(misses, stats_from_columns(batch, interner)))
        if cache is not None:
            for text, stats in fresh.items():
                cache.put(text, stats)
        return [
            fresh[text] if stats is None else stats
            for text, stats in zip(texts, results)
        ]

    def make_accumulator(self) -> ItemAccumulator:
        """A fresh, empty per-item accumulator."""
        return ItemAccumulator()

    # -- single item ------------------------------------------------------

    def extract(self, comments: Sequence[str]) -> np.ndarray:
        """Feature vector for one item given its raw comment texts.

        An item with no comments yields the all-zero vector (such items
        are normally removed by the rule filter first).
        """
        accumulator = ItemAccumulator()
        accumulator.add_many(self.comment_stats_many(list(comments)))
        return accumulator.to_vector()

    # -- batches -----------------------------------------------------------

    def extract_many(
        self,
        comment_lists: Sequence[Sequence[str]],
        n_workers: int | None = None,
    ) -> np.ndarray:
        """Feature matrix for a batch of items (rows follow input order).

        Parameters
        ----------
        comment_lists:
            One comment-text list per item.
        n_workers:
            Extract one contiguous chunk of the batch per worker the
            executor grants (see :mod:`repro.parallel`).  Rows are
            independent, so the result equals the serial matrix
            exactly.  ``None``/``0``/``1`` stays serial.
        """
        if len(comment_lists) == 0:
            return np.zeros((0, N_FEATURES))
        workers = effective_workers(n_workers, len(comment_lists))
        if workers > 1:
            from repro.core.parallel_analysis import (
                make_worker_state,
                worker_initargs,
            )

            bounds = np.linspace(0, len(comment_lists), workers + 1)
            bounds = bounds.astype(int)
            chunks = [
                list(comment_lists[start:end])
                for start, end in zip(bounds[:-1], bounds[1:])
            ]
            return np.vstack(
                map_ordered(
                    _extract_rows,
                    chunks,
                    workers,
                    initializer=make_worker_state,
                    initargs=worker_initargs(self),
                )
            )
        return np.vstack([self.extract(c) for c in comment_lists])

    def extract_items(
        self, items: Sequence, n_workers: int | None = None
    ) -> np.ndarray:
        """Feature matrix for objects exposing ``comment_texts``.

        Works with both :class:`repro.ecommerce.entities.Item` and
        :class:`repro.collector.records.CrawledItem`.
        """
        return self.extract_many(
            [item.comment_texts for item in items], n_workers=n_workers
        )


def _extract_rows(comment_lists: Sequence[Sequence[str]]) -> np.ndarray:
    """Executor task: one chunk's feature rows on the worker's clone."""
    return worker_state()["extractor"].extract_many(comment_lists)
