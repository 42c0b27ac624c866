"""Skip-gram word2vec with negative sampling, from scratch on numpy.

Implements the model of Mikolov et al. (2013) the way the reference C
implementation does:

* frequent-word subsampling with keep probability
  ``min(1, sqrt(t / f) + t / f)``;
* dynamic window: the effective window for each center position is drawn
  uniformly from ``1..window``;
* negative sampling from the unigram distribution raised to 3/4;
* SGD on the binary logistic loss for one positive pair plus
  ``negative`` sampled non-pairs, with linearly decaying learning rate.

Training is vectorized in mini-batches of (center, context) pairs.
Because every gradient in a batch is computed against the same (stale)
parameters, colliding updates to one embedding row are *averaged*, not
summed -- per-pair summing would scale a word's effective step size with
its in-batch frequency and diverge on small vocabularies (true mini-batch
semantics; the per-pair C tool avoids this by updating after every pair).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.ml.base import as_rng, stable_sigmoid
from repro.text.vocabulary import Vocabulary

_NEGATIVE_TABLE_SIZE = 1 << 20


def _top_k_filtered(
    scores: np.ndarray, k: int, banned_ids: set[int]
) -> list[tuple[int, float]]:
    """Deterministic top-*k* word ids by (-score, id), skipping banned ids.

    ``np.argpartition`` narrows the field to the ``k + len(banned_ids)``
    best candidates (banned ids can displace at most ``len(banned_ids)``
    of them) instead of fully sorting the vocabulary; ties break toward
    the lower word id so per-word and batched queries agree exactly.
    """
    n = len(scores)
    m = min(n, k + len(banned_ids))
    if m <= 0 or k <= 0:
        return []
    if m < n:
        candidates = np.argpartition(-scores, m - 1)[:m]
    else:
        candidates = np.arange(n)
    candidates = candidates[np.lexsort((candidates, -scores[candidates]))]
    results: list[tuple[int, float]] = []
    for idx in candidates:
        idx = int(idx)
        if idx in banned_ids:
            continue
        results.append((idx, float(scores[idx])))
        if len(results) == k:
            break
    return results


class Word2Vec:
    """Skip-gram negative-sampling embeddings.

    Parameters
    ----------
    dim:
        Embedding dimensionality.
    window:
        Maximum context window; effective windows are sampled 1..window.
    negative:
        Negative samples per positive pair.
    min_count:
        Words seen fewer times are dropped from the vocabulary.
    subsample:
        Frequent-word subsampling threshold ``t`` (0 disables).
    learning_rate:
        Initial SGD step size, decayed linearly to 1e-4 of itself.
    epochs:
        Passes over the corpus.
    batch_size:
        Pairs per vectorized SGD step.
    """

    def __init__(
        self,
        dim: int = 48,
        window: int = 4,
        negative: int = 5,
        min_count: int = 3,
        subsample: float = 1e-3,
        learning_rate: float = 0.1,
        epochs: int = 6,
        batch_size: int = 512,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if negative < 1:
            raise ValueError(f"negative must be >= 1, got {negative}")
        self.dim = dim
        self.window = window
        self.negative = negative
        self.min_count = min_count
        self.subsample = subsample
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.batch_size = batch_size
        self._seed = seed

    # -- training --------------------------------------------------------

    def fit(self, sentences: Sequence[Sequence[str]]) -> "Word2Vec":
        """Train embeddings on segmented *sentences*."""
        rng = as_rng(self._seed)
        full_vocab = Vocabulary.from_sentences(sentences)
        self.vocabulary = full_vocab.prune(self.min_count)
        if len(self.vocabulary) == 0:
            raise ValueError(
                "no words survive min_count pruning; lower min_count"
            )
        vocab_size = len(self.vocabulary)
        encoded = [self.vocabulary.encode(s) for s in sentences]
        encoded = [s for s in encoded if len(s) >= 2]
        if not encoded:
            raise ValueError("corpus has no sentences with >= 2 known words")

        counts = self.vocabulary.counts_array().astype(np.float64)
        total = counts.sum()

        # Subsampling keep-probability per word id.
        if self.subsample > 0:
            freq = counts / total
            ratio = self.subsample / np.maximum(freq, 1e-12)
            keep_prob = np.minimum(1.0, np.sqrt(ratio) + ratio)
        else:
            keep_prob = np.ones(vocab_size)

        # Negative-sampling table from the 3/4-power unigram distribution.
        weights = counts**0.75
        weights /= weights.sum()
        self._negative_table = rng.choice(
            vocab_size, size=_NEGATIVE_TABLE_SIZE, p=weights
        ).astype(np.int64)

        # Parameter init as in the C tool: input vectors uniform small,
        # output vectors zero.
        self._input = (
            rng.random((vocab_size, self.dim)) - 0.5
        ) / self.dim
        self._output = np.zeros((vocab_size, self.dim))

        total_pairs_estimate = max(
            1,
            self.epochs
            * sum(len(s) for s in encoded)
            * max(1, self.window),
        )
        pairs_done = 0
        for _ in range(self.epochs):
            centers, contexts = self._epoch_pairs(encoded, keep_prob, rng)
            for start in range(0, len(centers), self.batch_size):
                batch_centers = centers[start : start + self.batch_size]
                batch_contexts = contexts[start : start + self.batch_size]
                progress = min(1.0, pairs_done / total_pairs_estimate)
                lr = max(
                    self.learning_rate * (1.0 - progress),
                    self.learning_rate * 1e-4,
                )
                self._sgd_batch(batch_centers, batch_contexts, lr, rng)
                pairs_done += len(batch_centers)
        return self

    def _epoch_pairs(
        self,
        encoded: list[list[int]],
        keep_prob: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Generate the (center, context) pairs for one epoch.

        Vectorized over every position of a sentence at once; draws the
        same RNG sequence and emits pairs in the same order as the
        per-position loop in ``tests/oracles/word2vec.py``, so training
        is unchanged.
        """
        centers: list[np.ndarray] = []
        contexts: list[np.ndarray] = []
        for sentence in encoded:
            ids = np.array(sentence, dtype=np.int64)
            if self.subsample > 0:
                keep = rng.random(len(ids)) < keep_prob[ids]
                ids = ids[keep]
            n = len(ids)
            if n < 2:
                continue
            spans = rng.integers(1, self.window + 1, size=n)
            positions = np.arange(n)
            lo = np.maximum(0, positions - spans)
            hi = np.minimum(n, positions + spans + 1)
            counts = hi - lo - 1  # window size minus the center itself
            total = int(counts.sum())
            if total == 0:
                continue
            # Context index arithmetic: for each center position emit
            # lo..hi-1 ascending with the center skipped, exactly the
            # order the per-position loop produced.
            starts = np.cumsum(counts) - counts
            offset = np.arange(total) - np.repeat(starts, counts)
            ctx_idx = np.repeat(lo, counts) + offset
            ctx_idx += ctx_idx >= np.repeat(positions, counts)
            centers.append(np.repeat(ids, counts))
            contexts.append(ids[ctx_idx])
        if not centers:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        center_arr = np.concatenate(centers)
        context_arr = np.concatenate(contexts)
        order = rng.permutation(len(center_arr))
        return center_arr[order], context_arr[order]

    def _sgd_batch(
        self,
        centers: np.ndarray,
        contexts: np.ndarray,
        lr: float,
        rng: np.random.Generator,
    ) -> None:
        """One vectorized SGD step over a batch of pairs."""
        b = len(centers)
        if b == 0:
            return
        k = self.negative
        table_idx = rng.integers(0, _NEGATIVE_TABLE_SIZE, size=(b, k))
        negatives = self._negative_table[table_idx]  # (b, k)

        v_in = self._input[centers]  # (b, d)
        v_pos = self._output[contexts]  # (b, d)
        v_neg = self._output[negatives]  # (b, k, d)

        pos_score = stable_sigmoid(np.einsum("bd,bd->b", v_in, v_pos))
        neg_score = stable_sigmoid(np.einsum("bd,bkd->bk", v_in, v_neg))

        # Gradients of the NEG objective.
        g_pos = (pos_score - 1.0)[:, None]  # (b, 1)
        g_neg = neg_score[:, :, None]  # (b, k, 1)

        grad_in = g_pos * v_pos + np.einsum("bkd,bk->bd", v_neg, neg_score)
        grad_pos = g_pos * v_in
        grad_neg = g_neg * v_in[:, None, :]

        # All gradients in a batch are computed from the same (stale)
        # parameters, so colliding updates for one row must be *averaged*
        # rather than summed -- summing makes the effective step size
        # proportional to a word's in-batch frequency and diverges for
        # small vocabularies.  This is standard mini-batch semantics.
        self._apply_mean_update(self._input, centers, grad_in, lr)
        neg_flat = negatives.ravel()
        out_rows = np.concatenate([contexts, neg_flat])
        out_grads = np.concatenate(
            [grad_pos, grad_neg.reshape(b * k, self.dim)]
        )
        self._apply_mean_update(self._output, out_rows, out_grads, lr)

    @staticmethod
    def _apply_mean_update(
        matrix: np.ndarray,
        rows: np.ndarray,
        grads: np.ndarray,
        lr: float,
    ) -> None:
        """Subtract ``lr * mean(grad)`` per distinct row index."""
        grad_sum = np.zeros((matrix.shape[0], grads.shape[1]))
        np.add.at(grad_sum, rows, grads)
        counts = np.bincount(rows, minlength=matrix.shape[0])
        touched = counts > 0
        matrix[touched] -= (
            lr * grad_sum[touched] / counts[touched, None]
        )

    # -- queries -----------------------------------------------------------

    def _check_fitted(self) -> None:
        if not hasattr(self, "_input"):
            raise RuntimeError("Word2Vec is not fitted; call fit() first")

    def __contains__(self, word: str) -> bool:
        self._check_fitted()
        return word in self.vocabulary

    @property
    def vectors(self) -> np.ndarray:
        """The (vocab_size, dim) input embedding matrix."""
        self._check_fitted()
        return self._input

    def vector(self, word: str) -> np.ndarray:
        """Embedding of *word*; raises KeyError when unknown."""
        self._check_fitted()
        return self._input[self.vocabulary.word_id(word)]

    def normalized_vectors(self) -> np.ndarray:
        """Row-normalized embedding matrix for cosine queries."""
        self._check_fitted()
        norms = np.linalg.norm(self._input, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        return self._input / norms

    def similarity(self, word_a: str, word_b: str) -> float:
        """Cosine similarity between two word embeddings."""
        va = self.vector(word_a)
        vb = self.vector(word_b)
        denom = float(np.linalg.norm(va) * np.linalg.norm(vb))
        if denom == 0.0:
            return 0.0
        return float(va @ vb / denom)

    def _banned_ids(self, banned: set[str]) -> set[int]:
        return {
            self.vocabulary.word_id(w) for w in banned if w in self.vocabulary
        }

    def most_similar(
        self, word: str, k: int = 10, exclude: set[str] | None = None
    ) -> list[tuple[str, float]]:
        """Return the *k* nearest vocabulary words by cosine similarity.

        Top-k selection uses ``np.argpartition`` (O(vocab) instead of a
        full sort) with ties broken toward the lower word id.
        """
        self._check_fitted()
        normed = self.normalized_vectors()
        query = normed[self.vocabulary.word_id(word)]
        scores = normed @ query
        banned_ids = self._banned_ids({word} | (exclude or set()))
        return [
            (self.vocabulary.word(idx), score)
            for idx, score in _top_k_filtered(scores, k, banned_ids)
        ]

    def most_similar_batch(
        self,
        words: Sequence[str],
        k: int = 10,
        exclude: set[str] | None = None,
    ) -> list[list[tuple[str, float]]]:
        """Per-word k-NN for a whole query frontier in one matmul.

        Equivalent to ``[most_similar(w, k, exclude) for w in words]``
        but scores every query against the vocabulary in a single
        ``(vocab, dim) @ (dim, n_words)`` product; used by lexicon
        expansion where the frontier holds tens of words per round.
        """
        self._check_fitted()
        if len(words) == 0:
            return []
        normed = self.normalized_vectors()
        ids = [self.vocabulary.word_id(w) for w in words]
        scores = normed @ normed[ids].T  # (vocab, n_words)
        exclude_ids = self._banned_ids(exclude or set())
        results: list[list[tuple[str, float]]] = []
        for column, word_id in enumerate(ids):
            banned_ids = exclude_ids | {word_id}
            results.append(
                [
                    (self.vocabulary.word(idx), score)
                    for idx, score in _top_k_filtered(
                        scores[:, column], k, banned_ids
                    )
                ]
            )
        return results
