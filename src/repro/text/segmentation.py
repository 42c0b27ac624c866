"""Dictionary-driven word segmentation.

The paper computes every feature over the *word segmentation result* of
each comment (its notation ``C_i^j(t)``), relying on an off-the-shelf
Chinese segmenter.  Our synthetic comment language is rendered the same
way -- words concatenated without delimiters -- so we implement the
standard family of dictionary segmenters:

* :class:`MaxMatchSegmenter` -- greedy forward or backward maximum
  matching; linear time, the classic baseline.
* :class:`BidirectionalMatcher` -- runs both directions and keeps the
  segmentation with fewer words (ties broken toward fewer single-character
  words), the usual heuristic for resolving max-match ambiguity.
* :class:`ViterbiSegmenter` -- exact maximum-likelihood segmentation under
  a unigram language model, solved with dynamic programming.  This is the
  segmenter CATS uses by default because it recovers from the pathological
  greedy failures of max-match.

All segmenters share the :class:`DictionarySegmenter` interface: they cut
punctuation-free runs; punctuation splitting is handled up front so that
the structural features can still see the raw punctuation marks.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from collections.abc import Iterable, Mapping

from repro.text.tokenizer import split_punctuation
from repro.text.trie import _MISSING, _WORD_KEY, Trie
from repro.text.vocabulary import Vocabulary

#: Log-probability assigned to a character that must be emitted as an
#: out-of-vocabulary single-character word.  Chosen low enough that the
#: Viterbi segmenter only falls back to it when no dictionary word fits.
_OOV_LOG_PROB = -17.0


class DictionarySegmenter(ABC):
    """Common interface for dictionary-based segmenters.

    Parameters
    ----------
    lexicon:
        Either a :class:`Vocabulary` or any ``{word: count}`` mapping.
        Counts are only used by probability-aware subclasses.
    """

    def __init__(self, lexicon: Vocabulary | Mapping[str, int]) -> None:
        # The mapping is treated as read-only and is NOT copied: a
        # Vocabulary shares its internal counts and a dict is used
        # as-is, so constructing a segmenter (or the two directional
        # children of a BidirectionalMatcher) costs O(1) extra memory
        # instead of re-materializing the full dictionary each time.
        if isinstance(lexicon, Vocabulary):
            self._counts: Mapping[str, int] = lexicon.counts_mapping()
        elif isinstance(lexicon, dict):
            self._counts = lexicon
        else:
            self._counts = dict(lexicon)
        if not self._counts:
            raise ValueError("segmenter lexicon must not be empty")
        self._max_word_len = max(len(word) for word in self._counts)

    @property
    def lexicon_size(self) -> int:
        """Number of dictionary words available to the segmenter."""
        return len(self._counts)

    @property
    def max_word_length(self) -> int:
        """Length of the longest dictionary word."""
        return self._max_word_len

    def knows(self, word: str) -> bool:
        """Return True when *word* is in the dictionary."""
        return word in self._counts

    def segment(self, text: str) -> list[str]:
        """Segment *text* (which may contain punctuation) into words.

        Punctuation marks and whitespace are removed; each maximal run of
        word characters is segmented independently.
        """
        words: list[str] = []
        for run in split_punctuation(text):
            words.extend(self._segment_run(run))
        return words

    def segment_many(self, texts: Iterable[str]) -> list[list[str]]:
        """Segment every text in *texts*."""
        return [self.segment(text) for text in texts]

    @abstractmethod
    def _segment_run(self, run: str) -> list[str]:
        """Segment one punctuation-free run into words."""


class MaxMatchSegmenter(DictionarySegmenter):
    """Greedy maximum matching in a single direction.

    Parameters
    ----------
    lexicon:
        Dictionary words (with counts, unused here).
    reverse:
        When False (default) match forward from the left edge; when True
        match backward from the right edge.
    """

    def __init__(
        self,
        lexicon: Vocabulary | Mapping[str, int],
        reverse: bool = False,
    ) -> None:
        super().__init__(lexicon)
        self._reverse = reverse

    def _segment_run(self, run: str) -> list[str]:
        if self._reverse:
            return self._match_backward(run)
        return self._match_forward(run)

    def _match_forward(self, run: str) -> list[str]:
        words: list[str] = []
        start = 0
        n = len(run)
        while start < n:
            end = min(n, start + self._max_word_len)
            while end > start + 1 and run[start:end] not in self._counts:
                end -= 1
            words.append(run[start:end])
            start = end
        return words

    def _match_backward(self, run: str) -> list[str]:
        words: list[str] = []
        end = len(run)
        while end > 0:
            start = max(0, end - self._max_word_len)
            while start < end - 1 and run[start:end] not in self._counts:
                start += 1
            words.append(run[start:end])
            end = start
        words.reverse()
        return words


class BidirectionalMatcher(DictionarySegmenter):
    """Run forward and backward max-match; keep the better segmentation.

    "Better" follows the standard heuristic: fewer words wins; on a tie,
    fewer single-character words wins; on a further tie, the backward
    result wins (backward matching is empirically more accurate for
    Chinese, which our synthetic language imitates).
    """

    def __init__(self, lexicon: Vocabulary | Mapping[str, int]) -> None:
        super().__init__(lexicon)
        self._forward = MaxMatchSegmenter(self._counts, reverse=False)
        self._backward = MaxMatchSegmenter(self._counts, reverse=True)

    def _segment_run(self, run: str) -> list[str]:
        fwd = self._forward._segment_run(run)
        bwd = self._backward._segment_run(run)
        if len(fwd) != len(bwd):
            return fwd if len(fwd) < len(bwd) else bwd
        fwd_singles = sum(1 for w in fwd if len(w) == 1)
        bwd_singles = sum(1 for w in bwd if len(w) == 1)
        if fwd_singles < bwd_singles:
            return fwd
        return bwd


class ViterbiSegmenter(DictionarySegmenter):
    """Maximum-likelihood segmentation under a unigram language model.

    Each dictionary word ``w`` carries log-probability
    ``log(count(w) + 1) - log(total + V)`` (add-one smoothing); unknown
    single characters are allowed at a strong penalty so that every input
    remains segmentable.

    Candidate words are generated from a :class:`~repro.text.trie.Trie`
    over the dictionary: from each start position the trie is walked one
    node per character and stops at the first dead prefix, so only
    substrings that are prefixes of real dictionary words are ever
    considered (the original implementation hashed *every* substring up
    to ``max_word_len``, almost all misses).  The forward dynamic
    program relaxes ``best[end]`` in exactly the same candidate order as
    the substring-hashing reference (for each end, starts ascending with
    a strictly-greater update), so the segmentation output is identical
    -- ``tests/oracles/segmentation.py`` keeps the original algorithm as
    the property-tested reference.
    """

    def __init__(self, lexicon: Vocabulary | Mapping[str, int]) -> None:
        super().__init__(lexicon)
        total = sum(self._counts.values())
        denom = math.log(total + len(self._counts))
        self._log_probs = {
            word: math.log(count + 1) - denom
            for word, count in self._counts.items()
        }
        self._trie = Trie(self._log_probs)
        # DP buffers reused across runs (grown on demand, never shrunk):
        # comment analysis segments millions of short runs, and
        # allocating two fresh lists per run costs more than the
        # relaxation itself.  Reuse makes _segment_run non-reentrant,
        # which matches the repo-wide single-writer analysis convention
        # (each worker process owns its private segmenter).
        self._best: list[float] = [0.0] * 64
        self._back: list[int] = [0] * 64

    def word_log_prob(self, word: str) -> float:
        """Return the smoothed unigram log-probability of *word*."""
        return self._log_probs.get(word, _OOV_LOG_PROB)

    def _segment_run(self, run: str) -> list[str]:
        # Forward relaxation: when the outer loop reaches `start`,
        # best[start] is final (all candidate words end strictly later
        # than they begin).  best[i] = best log-prob of segmenting
        # run[:i]; back[i] = start of the final word.  The trie walk is
        # inlined (one dict.get per character, no generator frames) and
        # every hot name is a local; candidate relaxation order --
        # ends ascending per start, strictly-greater updates -- is
        # exactly the reference's, so the output is bit-identical
        # (property-tested against tests/oracles/segmentation.py).
        n = len(run)
        if n == 0:
            return []
        best = getattr(self, "_best", None)
        back = self._back if best is not None else None
        if best is None or len(best) <= n:
            # First use after unpickling an old archive, or a run longer
            # than the current buffers.
            self._best = best = [0.0] * (2 * n + 2)
            self._back = back = [0] * (2 * n + 2)
        neg_inf = -math.inf
        best[0] = 0.0
        for i in range(1, n + 1):
            best[i] = neg_inf
        root = self._trie.root
        word_key = _WORD_KEY
        missing = _MISSING
        oov = _OOV_LOG_PROB
        for start in range(n):
            base = best[start]
            has_single = False
            node = root
            end = start
            while end < n:
                node = node.get(run[end])
                if node is None:
                    break
                end += 1
                log_prob = node.get(word_key, missing)
                if log_prob is not missing:
                    if end == start + 1:
                        has_single = True
                    score = base + log_prob
                    if score > best[end]:
                        best[end] = score
                        back[end] = start
            if not has_single:
                # OOV fallback: emit run[start] as a single-character
                # word at a strong penalty so every input segments.
                score = base + oov
                if score > best[start + 1]:
                    best[start + 1] = score
                    back[start + 1] = start
        words: list[str] = []
        end = n
        while end > 0:
            start = back[end]
            words.append(run[start:end])
            end = start
        words.reverse()
        return words
