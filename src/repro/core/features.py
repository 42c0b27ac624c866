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

* :class:`CommentStats` captures everything a single comment contributes
  (one segmentation + one sentiment call, computed exactly once);
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

import numpy as np

from repro.core.analysis_cache import AnalysisCache, CacheInfo
from repro.core.analyzer import SemanticAnalyzer
from repro.core.interning import TokenInterner
from repro.parallel import effective_workers, map_ordered, worker_state
from repro.text.ngrams import positive_bigram_count
from repro.text.stats import (
    comment_entropy,
    entropy_from_counts,
    punctuation_count,
    punctuation_ratio,
)

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

    @classmethod
    def from_ids(
        cls,
        text: str,
        ids: np.ndarray,
        interner: TokenInterner,
        sentiment: float,
    ) -> "CommentStats":
        """Vectorized construction from an interned ``int32`` id array.

        *ids* is the comment's segmentation mapped through
        :meth:`TokenInterner.encode` (length-preserving); *sentiment*
        is the precomputed ``P(positive)`` (the caller batches
        sentiment across comments).  Every field is bit-identical to
        the scalar reference
        (:meth:`FeatureExtractor.comment_stats_scalar`): integer
        counts are exact by construction, entropy goes through the
        shared sorted-counts kernel
        (:func:`repro.text.stats.entropy_from_counts`), and sentiment
        shares the NB gather kernel -- the property tests in
        ``tests/core/test_vectorized_stats.py`` pin this down.
        """
        n_words = int(ids.shape[0])
        unique_ids, counts = np.unique(ids, return_counts=True)
        word_counts = Counter(
            dict(
                zip(interner.decode(unique_ids), (int(c) for c in counts))
            )
        )
        positive_mask = interner.positive_mask
        n_pos = int(np.count_nonzero(positive_mask[unique_ids]))
        n_neg = int(np.count_nonzero(interner.negative_mask[unique_ids]))
        if n_words > 1:
            hits = positive_mask[ids]
            n_bigrams_pos = int(np.count_nonzero(hits[:-1] | hits[1:]))
            bigram_ratio_term = n_bigrams_pos / (n_words - 1)
        else:
            n_bigrams_pos = 0
            bigram_ratio_term = 0.0
        return cls(
            n_words=n_words,
            word_counts=word_counts,
            n_positive_distinct=n_pos,
            pos_neg_delta=abs(n_pos - n_neg),
            sentiment=sentiment,
            entropy=entropy_from_counts(counts),
            n_punctuation=punctuation_count(text),
            punctuation_ratio=punctuation_ratio(text),
            n_positive_bigrams=n_bigrams_pos,
            bigram_ratio_term=bigram_ratio_term,
            token_ids=ids,
        )


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
        text (see :mod:`repro.core.analysis_cache`).  ``None`` or
        ``0`` disables caching (each comment is re-analyzed every
        time).

    The per-comment analysis runs on the interned fast path: the
    segmentation is mapped to an ``int32`` id array once, lexicon
    membership and entropy are numpy operations over that array, and
    sentiment is a batched NB gather.
    :meth:`comment_stats_scalar` keeps the original string-based
    implementation as the bit-identical reference.
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

    def absorb_worker_cache_counters(
        self, hits: int, misses: int, evictions: int = 0
    ) -> None:
        """Fold parallel-worker cache counter deltas into this cache.

        No-op when caching is disabled.  See
        :meth:`AnalysisCache.absorb_counters`.
        """
        if self._cache is not None:
            self._cache.absorb_counters(hits, misses, evictions)

    # -- per-comment statistics -------------------------------------------

    def _analyze(self, text: str, interner: TokenInterner) -> CommentStats:
        """Segment, intern and score one comment (cache miss path)."""
        ids = interner.encode(self.analyzer.segment(text))
        sentiment = self.analyzer.sentiment.score_ids(
            interner.sentiment_ids[ids]
        )
        return CommentStats.from_ids(text, ids, interner, sentiment)

    def comment_stats(self, text: str) -> CommentStats:
        """Analyze one raw comment into its feature contributions.

        Served from the shared analysis cache when the same text was
        analyzed before; both the batch and the incremental paths go
        through here (or :meth:`comment_stats_many`), so a duplicate
        comment is segmented at most once while cached.
        """
        interner = self._interner()
        cache = self._cache
        if cache is not None:
            cached = cache.get(text)
            if cached is not None:
                return cached
        stats = self._analyze(text, interner)
        if cache is not None:
            cache.put(text, stats)
        return stats

    def comment_stats_many(
        self,
        texts: Sequence[str],
        n_workers: int | None = None,
    ) -> list[CommentStats]:
        """Per-comment statistics for a batch, in input order.

        Entry *i* is the same object :meth:`comment_stats` would
        return for ``texts[i]``; the batch form segments each
        *distinct* cache-missing text once and scores all misses'
        sentiment through one batched NB call.

        When the executor grants more than one worker the batch is
        analyzed by the parallel sharded engine
        (:mod:`repro.core.parallel_analysis`): every returned stats
        object is field-for-field equal to the serial one, with
        ``token_ids`` in the merged interner's id space and the
        interner grown exactly as a serial run would grow it.
        """
        interner = self._interner()
        if effective_workers(n_workers, len(texts)) > 1:
            from repro.core.parallel_analysis import analyze_stats_many

            return analyze_stats_many(self, texts, n_workers)
        cache = self._cache
        results: list[CommentStats | None] = [None] * len(texts)
        computed: dict[str, int] = {}
        miss_indices: list[int] = []
        miss_ids: list[np.ndarray] = []
        miss_sentiment_docs: list[np.ndarray] = []
        for i, text in enumerate(texts):
            first = computed.get(text)
            if first is not None:
                # Duplicate within this batch: resolved after the
                # batched sentiment call, from the first occurrence.
                continue
            if cache is not None:
                cached = cache.get(text)
                if cached is not None:
                    results[i] = cached
                    continue
            computed[text] = i
            ids = interner.encode(self.analyzer.segment(text))
            miss_indices.append(i)
            miss_ids.append(ids)
            miss_sentiment_docs.append(interner.sentiment_ids[ids])
        if miss_indices:
            sentiments = self.analyzer.sentiment.score_ids_many(
                miss_sentiment_docs
            )
            for i, ids, sentiment in zip(
                miss_indices, miss_ids, sentiments
            ):
                stats = CommentStats.from_ids(
                    texts[i], ids, interner, float(sentiment)
                )
                results[i] = stats
                if cache is not None:
                    cache.put(texts[i], stats)
        for i, text in enumerate(texts):
            if results[i] is None:
                results[i] = results[computed[text]]
        return results  # type: ignore[return-value]

    def comment_stats_scalar(self, text: str) -> CommentStats:
        """Reference implementation: per-word Python loops, no cache.

        This is the original scalar analysis path, kept as the ground
        truth the vectorized path is property-tested against (and the
        baseline the pipeline benchmark measures against).
        """
        words = self.analyzer.segment(text)
        word_set = set(words)
        positive = self.analyzer.lexicon.positive
        negative = self.analyzer.lexicon.negative
        n_pos = len(word_set & positive)
        n_neg = len(word_set & negative)
        n_bigrams_pos = positive_bigram_count(words, positive)
        return CommentStats(
            n_words=len(words),
            word_counts=Counter(words),
            n_positive_distinct=n_pos,
            pos_neg_delta=abs(n_pos - n_neg),
            sentiment=self.analyzer.sentiment.score(words),
            entropy=comment_entropy(words),
            n_punctuation=punctuation_count(text),
            punctuation_ratio=punctuation_ratio(text),
            n_positive_bigrams=n_bigrams_pos,
            bigram_ratio_term=(
                n_bigrams_pos / (len(words) - 1) if len(words) > 1 else 0.0
            ),
        )

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
