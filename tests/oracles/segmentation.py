"""Substring-hashing Viterbi: the reference for
:class:`repro.text.segmentation.ViterbiSegmenter`'s trie-driven DP."""

from __future__ import annotations

import math

from repro.text.segmentation import _OOV_LOG_PROB, ViterbiSegmenter


def segment_run_reference(segmenter: ViterbiSegmenter, run: str) -> list[str]:
    """Substring-hashing reference implementation (pre-trie).

    Kept verbatim so the property tests can assert the trie-driven
    fast path produces identical segmentations.
    """
    n = len(run)
    if n == 0:
        return []
    best = [-math.inf] * (n + 1)
    back = [0] * (n + 1)
    best[0] = 0.0
    for end in range(1, n + 1):
        lo = max(0, end - segmenter._max_word_len)
        for start in range(lo, end):
            word = run[start:end]
            if word in segmenter._log_probs:
                log_prob = segmenter._log_probs[word]
            elif end - start == 1:
                log_prob = _OOV_LOG_PROB
            else:
                continue
            score = best[start] + log_prob
            if score > best[end]:
                best[end] = score
                back[end] = start
    words: list[str] = []
    end = n
    while end > 0:
        start = back[end]
        words.append(run[start:end])
        end = start
    words.reverse()
    return words
