"""Comment sentiment model (the SnowNLP substitute).

The paper computes each comment's sentiment with SnowNLP's pre-trained
model -- a multinomial naive-Bayes classifier over shopping-review
bags-of-words that returns ``P(positive)`` in ``[0, 1]``.  SnowNLP itself
is unavailable offline, so :class:`SentimentModel` reproduces the same
construction: it trains a :class:`~repro.ml.naive_bayes.MultinomialNB`
on a labeled corpus of segmented comments and exposes the same
``score(comment) -> [0, 1]`` interface.

The training corpus comes from the platform simulator's comment
generator, which labels comments positive/negative by construction (just
as SnowNLP's corpus was labeled by review stars).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.ml.naive_bayes import MultinomialNB
from repro.text.vocabulary import Vocabulary


class SentimentModel:
    """Bag-of-words naive-Bayes sentiment scorer.

    Parameters
    ----------
    alpha:
        Laplace smoothing for the underlying multinomial NB.
    """

    def __init__(self, alpha: float = 1.0) -> None:
        self._nb = MultinomialNB(alpha=alpha)
        self._vocabulary: Vocabulary | None = None

    def fit(
        self,
        documents: Sequence[Sequence[str]],
        labels: Sequence[int],
    ) -> "SentimentModel":
        """Train on segmented *documents* with binary sentiment *labels*.

        Label 1 means positive sentiment, 0 negative.
        """
        if len(documents) != len(labels):
            raise ValueError("documents and labels must have equal length")
        if not documents:
            raise ValueError("training corpus must be non-empty")
        self._vocabulary = Vocabulary.from_sentences(documents)
        encoded = [self._vocabulary.encode(doc) for doc in documents]
        self._nb.fit(encoded, list(labels), vocab_size=len(self._vocabulary))
        return self

    @property
    def vocabulary(self) -> Vocabulary:
        """Training vocabulary; raises when unfitted."""
        self._check_fitted()
        assert self._vocabulary is not None
        return self._vocabulary

    def _check_fitted(self) -> None:
        if self._vocabulary is None:
            raise RuntimeError("SentimentModel is not fitted; call fit() first")

    def score(self, words: Sequence[str]) -> float:
        """Return ``P(positive)`` for one segmented comment.

        Unknown words are ignored; a comment with no known words scores
        the class prior, matching SnowNLP behaviour on out-of-domain
        text.
        """
        self._check_fitted()
        assert self._vocabulary is not None
        encoded = self._vocabulary.encode(words)
        return self._nb.positive_probability(encoded)

    def score_ids(self, token_ids: np.ndarray) -> float:
        """``P(positive)`` from an array of NB-vocabulary token ids.

        Ids of ``-1`` mark words outside the sentiment vocabulary and
        are ignored -- the comment-analysis kernel
        (:meth:`repro.core.features.FeatureExtractor.comment_columns`)
        maps segmenter output to these ids once and scores without
        re-encoding strings.  Bit-identical to :meth:`score` on the
        corresponding word sequence.
        """
        self._check_fitted()
        return self._nb.positive_probability_ids(token_ids)

    def score_ids_many(
        self, documents: Sequence[np.ndarray]
    ) -> np.ndarray:
        """``P(positive)`` per id-array document, shape ``(n,)``.

        Entry *i* is bit-identical to ``score_ids(documents[i])``; the
        batch form exists so the feature extractor and the serving
        layer pay one call per micro-batch instead of one per comment.
        """
        self._check_fitted()
        return self._nb.positive_probability_many(documents)

    def score_many(self, comments: Sequence[Sequence[str]]) -> list[float]:
        """Score every comment; entry *i* equals ``score(comments[i])``."""
        self._check_fitted()
        assert self._vocabulary is not None
        encoded = [
            np.asarray(self._vocabulary.encode(comment), dtype=np.intp)
            for comment in comments
        ]
        return [float(p) for p in self._nb.positive_probability_many(encoded)]

    def predict(self, words: Sequence[str]) -> int:
        """Hard sentiment label (1 = positive) for one comment."""
        return int(self.score(words) >= 0.5)
