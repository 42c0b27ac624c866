"""Token interning: segmented words as ``int32`` id arrays.

Every Table II feature is a function of a comment's segmentation, its
lexicon membership and its sentiment.  Computing those from Python
string lists means hashing every word several times per comment (set
intersection against the lexicons, Counter construction, NB vocabulary
encoding).  :class:`TokenInterner` hashes each *distinct* word exactly
once, assigning it a dense ``int32`` id, and maintains three id-indexed
arrays:

* ``positive_mask`` / ``negative_mask`` -- boolean membership of the
  expanded sentiment lexicons, so distinct-positive counts and
  positive-bigram counts become mask gathers;
* ``sentiment_ids`` -- the word's id in the sentiment model's NB
  vocabulary (``-1`` when outside it), so sentiment scoring becomes an
  integer gather instead of string encoding.

An interner is built against one lexicon pair plus one sentiment
vocabulary and is *append-only*: ids are stable for the life of the
interner, so cached per-comment statistics remain valid.  When the
analyzer's resources are replaced, a new interner must be built (the
semantic analyzer handles that -- see
:meth:`repro.core.analyzer.SemanticAnalyzer.interner`); interner
*identity* therefore doubles as the analysis-version token the shared
analysis cache keys on.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.text.vocabulary import Vocabulary


class TokenInterner:
    """Append-only word <-> ``int32`` id mapping with derived id tables.

    Parameters
    ----------
    positive / negative:
        The expanded sentiment lexicons (any set-like container; the
        analyzer passes its ``frozenset`` pair).
    sentiment_vocabulary:
        The sentiment model's NB vocabulary, or ``None`` when no
        sentiment model is available (all ids then map to ``-1``).
    """

    def __init__(
        self,
        positive: frozenset[str] | set[str],
        negative: frozenset[str] | set[str],
        sentiment_vocabulary: Vocabulary | None = None,
        initial_capacity: int = 1024,
    ) -> None:
        if initial_capacity < 1:
            raise ValueError(
                f"initial_capacity must be >= 1, got {initial_capacity}"
            )
        self._positive = positive
        self._negative = negative
        self._sentiment_vocabulary = sentiment_vocabulary
        self._word_to_id: dict[str, int] = {}
        self._id_to_word: list[str] = []
        self._positive_mask = np.zeros(initial_capacity, dtype=bool)
        self._negative_mask = np.zeros(initial_capacity, dtype=bool)
        self._sentiment_ids = np.full(initial_capacity, -1, dtype=np.int32)

    # -- bookkeeping -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._id_to_word)

    def __contains__(self, word: str) -> bool:
        return word in self._word_to_id

    @property
    def positive_mask(self) -> np.ndarray:
        """Boolean positive-lexicon membership indexed by id.

        The array is capacity-sized; only indices below ``len(self)``
        are meaningful, which is all an id array can contain.
        """
        return self._positive_mask

    @property
    def negative_mask(self) -> np.ndarray:
        """Boolean negative-lexicon membership indexed by id."""
        return self._negative_mask

    @property
    def sentiment_ids(self) -> np.ndarray:
        """NB-vocabulary id (or -1) indexed by id."""
        return self._sentiment_ids

    def _grow(self, needed: int) -> None:
        capacity = len(self._positive_mask)
        if needed <= capacity:
            return
        new_capacity = capacity
        while new_capacity < needed:
            new_capacity *= 2
        for name in ("_positive_mask", "_negative_mask", "_sentiment_ids"):
            old = getattr(self, name)
            grown = np.full(
                new_capacity,
                -1 if old.dtype == np.int32 else False,
                dtype=old.dtype,
            )
            grown[:capacity] = old
            setattr(self, name, grown)

    def _intern_new(self, word: str) -> int:
        if getattr(self, "_frozen", False):
            raise KeyError(
                f"frozen interner cannot assign an id to new word "
                f"{word!r}; rebuild from a live analyzer to extend the "
                f"vocabulary"
            )
        idx = len(self._id_to_word)
        self._grow(idx + 1)
        self._word_to_id[word] = idx
        self._id_to_word.append(word)
        self._positive_mask[idx] = word in self._positive
        self._negative_mask[idx] = word in self._negative
        if self._sentiment_vocabulary is not None:
            self._sentiment_ids[idx] = self._sentiment_vocabulary.get_id(
                word, -1
            )
        return idx

    # -- encoding ----------------------------------------------------------

    def intern(self, word: str) -> int:
        """Id of *word*, assigning a fresh id on first sight."""
        idx = self._word_to_id.get(word)
        if idx is None:
            idx = self._intern_new(word)
        return idx

    def encode(self, words: Sequence[str]) -> np.ndarray:
        """Map a segmented comment to an ``int32`` id array.

        Unlike :meth:`Vocabulary.encode` nothing is dropped: unknown
        words are interned on the fly, so ``len(result) == len(words)``
        always holds and length-derived features stay exact.
        """
        word_to_id = self._word_to_id
        out = np.empty(len(words), dtype=np.int32)
        for i, word in enumerate(words):
            idx = word_to_id.get(word)
            if idx is None:
                idx = self._intern_new(word)
            out[i] = idx
        return out

    def decode(self, ids: Iterable[int]) -> list[str]:
        """Map ids back to their words."""
        id_to_word = self._id_to_word
        return [id_to_word[i] for i in ids]

    # -- serialization -----------------------------------------------------

    @property
    def words(self) -> list[str]:
        """All interned words in id order (a copy; safe to mutate)."""
        return list(self._id_to_word)

    def export_state(self) -> dict[str, object]:
        """Id-ordered words plus trimmed derived tables.

        Everything the columnar comment store needs to persist beside
        its token arena: the word list pins the id assignment, and the
        trimmed masks/sentiment ids let :meth:`from_arrays` rebuild a
        frozen interner without the original lexicons or NB vocabulary.
        """
        n = len(self._id_to_word)
        return {
            "words": list(self._id_to_word),
            "positive_mask": self._positive_mask[:n].copy(),
            "negative_mask": self._negative_mask[:n].copy(),
            "sentiment_ids": self._sentiment_ids[:n].copy(),
        }

    @classmethod
    def from_arrays(
        cls,
        words: Sequence[str],
        positive_mask: np.ndarray,
        negative_mask: np.ndarray,
        sentiment_ids: np.ndarray,
    ) -> "TokenInterner":
        """Rebuild a *frozen* interner from :meth:`export_state` arrays.

        The result decodes and feature-computes exactly like the
        original but rejects new words -- it carries no lexicons or
        sentiment vocabulary, so interning anything unseen would
        silently mis-tag it.  Use it for analyzer-free rehydration of a
        persisted store.
        """
        n = len(words)
        if not (
            len(positive_mask) == len(negative_mask)
            == len(sentiment_ids) == n
        ):
            raise ValueError(
                "interner arrays disagree on length: "
                f"{n} words, {len(positive_mask)}/{len(negative_mask)} "
                f"mask entries, {len(sentiment_ids)} sentiment ids"
            )
        interner = cls.__new__(cls)
        interner._positive = frozenset()
        interner._negative = frozenset()
        interner._sentiment_vocabulary = None
        interner._id_to_word = list(words)
        interner._word_to_id = {w: i for i, w in enumerate(words)}
        if len(interner._word_to_id) != n:
            raise ValueError("interner word list contains duplicates")
        interner._positive_mask = np.ascontiguousarray(
            positive_mask, dtype=bool
        )
        interner._negative_mask = np.ascontiguousarray(
            negative_mask, dtype=bool
        )
        interner._sentiment_ids = np.ascontiguousarray(
            sentiment_ids, dtype=np.int32
        )
        interner._frozen = True
        return interner

    @property
    def frozen(self) -> bool:
        """True for :meth:`from_arrays` interners that reject new words."""
        return getattr(self, "_frozen", False)

    def words_from(self, start: int) -> list[str]:
        """Interned words with ids ``>= start``, in id order.

        The tail a worker-local interner grew beyond its cloned base --
        exactly what :func:`merge_interners` consumes -- without
        copying the (much larger) shared prefix the way :attr:`words`
        would.
        """
        if start < 0:
            raise ValueError(f"start must be >= 0, got {start}")
        return self._id_to_word[start:]

    def adopt_words(self, words: Sequence[str]) -> None:
        """Replay *words* so each gets the id equal to its position.

        Binding a persisted columnar store to a *live* analyzer means
        the analyzer's interner must assign the stored ids to the
        stored words.  Replaying into a fresh (or prefix-compatible)
        interner does that; if any word lands on a different id --
        because unrelated text was interned first -- the stored arenas
        would decode garbage, so this raises instead.
        """
        for expected, word in enumerate(words):
            got = self.intern(word)
            if got != expected:
                raise ValueError(
                    f"cannot adopt persisted vocabulary: word {word!r} "
                    f"interned to id {got}, store expects {expected}; "
                    "attach the store before analyzing other text"
                )


# -- parallel-shard vocabulary merge -----------------------------------------


def merge_interners(
    target: TokenInterner,
    shard_words: Sequence[str],
    base_size: int,
) -> np.ndarray:
    """Union one worker shard's vocabulary into *target*; return its LUT.

    A parallel-analysis worker starts from a clone of *target* holding
    its first ``base_size`` words (ids ``0 .. base_size-1`` identical by
    construction) and interns whatever else its chunks contain.
    *shard_words* is everything the worker grew beyond that base
    (:meth:`TokenInterner.words_from`), in worker-local id order --
    i.e. first-seen order within the worker's chunk stream.

    Each shard word is adopted through :meth:`TokenInterner.intern`:
    words the target already knows (from the base or an earlier shard)
    keep their existing id, genuinely new words get the next dense id.
    Merging shards in **chunk order** therefore reproduces the serial
    run's id assignment exactly: a word's merged id is determined by the
    first chunk it occurs in and its first occurrence position inside
    that chunk, which is precisely the serial first-occurrence order.
    The merged interner snapshot is byte-identical to the serial one.

    Returns the shard's id lookup table: an ``int32`` array of length
    ``base_size + len(shard_words)`` with ``lut[local_id] == merged_id``
    (identity below ``base_size``).  Remap a shard's token arena with
    :func:`remap_ids`.
    """
    if len(target) < base_size:
        raise ValueError(
            f"merge target holds {len(target)} words but the shard was "
            f"cloned from a base of {base_size}; shards can only be "
            f"merged into the interner they were cloned from"
        )
    lut = np.empty(base_size + len(shard_words), dtype=np.int32)
    lut[:base_size] = np.arange(base_size, dtype=np.int32)
    intern = target.intern
    for offset, word in enumerate(shard_words):
        lut[base_size + offset] = intern(word)
    return lut


def remap_ids(ids: np.ndarray, lut: np.ndarray) -> np.ndarray:
    """Gather worker-local token ids through a merge LUT.

    One vectorized ``np.take`` -- the whole cost of translating a
    shard's token arena into the merged id space.  When the LUT is the
    identity (the shard grew no vocabulary and neither did any earlier
    shard) callers may skip the gather entirely; the result would be an
    equal array either way.
    """
    ids = np.asarray(ids)
    if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= len(lut)):
        raise ValueError(
            f"token id outside the shard's LUT of {len(lut)} entries"
        )
    return np.take(lut, ids).astype(np.int32, copy=False)


# -- token-arena kernels -----------------------------------------------------


def gather_ranges(
    values: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> np.ndarray:
    """Concatenate ``values[starts[i]:ends[i]]`` for all ``i``.

    Fully vectorized (cumsum-of-deltas over per-range step arrays);
    zero-length ranges contribute nothing.  Works on memory-mapped
    *values* -- only the addressed pages are read.
    """
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    lens = ends - starts
    if np.any(lens < 0):
        raise ValueError("gather_ranges: end precedes start")
    keep = lens > 0
    s, l = starts[keep], lens[keep]
    if s.size == 0:
        return np.empty(0, dtype=np.asarray(values).dtype)
    total = int(l.sum())
    steps = np.ones(total, dtype=np.int64)
    heads = np.zeros(len(s), dtype=np.int64)
    heads[1:] = np.cumsum(l[:-1])
    steps[heads[0]] = s[0]
    if len(s) > 1:
        steps[heads[1:]] = s[1:] - (s[:-1] + l[:-1] - 1)
    return np.asarray(values)[np.cumsum(steps)]


def sort_pairs(
    tokens: np.ndarray, seg: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort ``(segment, token)`` pairs and find the runs of equal pairs.

    Returns the pairs' segments and tokens sorted by segment, then
    token id, and the run boundaries in that order: run ``j`` (one
    distinct pair) spans ``edges[j]:edges[j + 1]``.  Distinct ids are
    distinct words because interning is a bijection, so each run is one
    distinct word of its segment and its length the word's count.
    """
    order = np.lexsort((tokens, seg))
    st, tt = seg[order], tokens[order]
    del order  # bounds peak memory on store-sized arenas
    new = np.ones(len(tt) + 1, dtype=bool)
    new[1:-1] = (st[1:] != st[:-1]) | (tt[1:] != tt[:-1])
    return st, tt, np.flatnonzero(new)
