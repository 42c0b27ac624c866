"""Structural statistics over comments.

These helpers implement the measurements behind the paper's structural
features (Section II-A.4): comment entropy, punctuation counts/ratios and
the unique-word ratio.  They operate on a raw comment string plus its
word-segmentation result, mirroring the paper's notation where a comment
``C_i^j`` has word sequence ``C_i^j(t)``.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

import numpy as np

from repro.text.tokenizer import PUNCTUATION


def entropy_from_counts(counts: np.ndarray) -> float:
    """Shannon entropy (nats) of a vector of occurrence counts.

    The entropy definition behind :func:`comment_entropy`.  The counts
    are sorted before the reduction so the float summation order
    depends only on the count *multiset*, never on word insertion or
    token-id order.  The batch kernel
    (:meth:`repro.core.features.FeatureExtractor.comment_columns`)
    reproduces it bit for bit: it sorts each comment's counts the same
    way and reduces comments with equal distinct-word counts as rows
    of one matrix, which numpy sums in the same pairwise order.
    """
    if len(counts) == 0:
        return 0.0
    counts = np.sort(np.asarray(counts, dtype=np.float64))
    p = counts / counts.sum()
    # +0.0 normalizes the -0.0 produced by a single-word comment.
    return float(-(p * np.log(p)).sum() + 0.0)


def comment_entropy(words: Sequence[str]) -> float:
    """Shannon entropy of the word distribution within one comment.

    The paper defines a comment's "chaos" as
    ``-sum_t p(w_t) * log p(w_t)`` where ``p(w)`` is the frequency of word
    ``w`` *inside this comment*.  Natural log is used (the figure axes
    range 0..8 nats).

    >>> comment_entropy(["a", "a"])
    0.0
    """
    if not words:
        return 0.0
    counts = np.fromiter(Counter(words).values(), dtype=np.int64)
    return entropy_from_counts(counts)


def unique_word_ratio(words: Sequence[str]) -> float:
    """Ratio of distinct words to total words; 0.0 for an empty comment.

    >>> unique_word_ratio(["a", "b", "a"])  # doctest: +ELLIPSIS
    0.666...
    """
    if not words:
        return 0.0
    return len(set(words)) / len(words)


def punctuation_count(text: str) -> int:
    """Number of punctuation marks in the raw comment text."""
    return sum(1 for char in text if char in PUNCTUATION)


def punctuation_ratio(text: str) -> float:
    """Punctuation marks per character of raw text; 0.0 for empty text."""
    if not text:
        return 0.0
    return punctuation_count(text) / len(text)


def comment_length(words: Sequence[str]) -> int:
    """Length of a comment in words (the unit used by Fig. 4)."""
    return len(words)


def duplicate_word_count(words: Sequence[str]) -> int:
    """Number of word occurrences beyond each word's first occurrence."""
    return len(words) - len(set(words))
