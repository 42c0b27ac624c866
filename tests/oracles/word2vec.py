"""Per-position skip-gram pair loop: the reference for
``repro.semantics.word2vec.Word2Vec._epoch_pairs``."""

from __future__ import annotations

import numpy as np

from repro.semantics.word2vec import Word2Vec


def epoch_pairs_reference(
    model: Word2Vec,
    encoded: list[list[int]],
    keep_prob: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-position loop implementation kept as the parity reference
    for ``Word2Vec._epoch_pairs`` (bit-identical output, same RNG use)."""
    centers: list[np.ndarray] = []
    contexts: list[np.ndarray] = []
    for sentence in encoded:
        ids = np.array(sentence, dtype=np.int64)
        if model.subsample > 0:
            keep = rng.random(len(ids)) < keep_prob[ids]
            ids = ids[keep]
        n = len(ids)
        if n < 2:
            continue
        spans = rng.integers(1, model.window + 1, size=n)
        for pos in range(n):
            span = int(spans[pos])
            lo = max(0, pos - span)
            hi = min(n, pos + span + 1)
            ctx = np.concatenate([ids[lo:pos], ids[pos + 1 : hi]])
            if len(ctx) == 0:
                continue
            centers.append(np.full(len(ctx), ids[pos], dtype=np.int64))
            contexts.append(ctx)
    if not centers:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    center_arr = np.concatenate(centers)
    context_arr = np.concatenate(contexts)
    order = rng.permutation(len(center_arr))
    return center_arr[order], context_arr[order]
