"""Batched k-NN queries equal the per-word reference path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.semantics.similarity import expand_lexicon
from repro.semantics.word2vec import Word2Vec, _top_k_filtered
from repro.text.vocabulary import Vocabulary
from tests.oracles.similarity import expand_lexicon_reference


def make_model(n_words: int, dim: int, seed: int) -> Word2Vec:
    """A Word2Vec shell with random embeddings (no training needed for
    query-path tests)."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(n_words)]
    model = Word2Vec(dim=dim, min_count=1)
    model.vocabulary = Vocabulary.from_sentences([words])
    model._input = rng.normal(size=(n_words, dim))
    model._output = np.zeros((n_words, dim))
    return model


class TestTopKFiltered:
    def test_matches_full_sort(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=50)
        got = _top_k_filtered(scores, k=7, banned_ids={3, 10})
        expected = [
            (int(i), float(scores[i]))
            for i in np.argsort(-scores)
            if int(i) not in {3, 10}
        ][:7]
        assert got == expected

    def test_tie_break_prefers_lower_id(self):
        scores = np.array([0.5, 0.9, 0.9, 0.1, 0.9])
        assert [i for i, _ in _top_k_filtered(scores, 3, set())] == [1, 2, 4]

    def test_k_zero_or_empty(self):
        assert _top_k_filtered(np.array([1.0]), 0, set()) == []

    def test_all_banned(self):
        assert _top_k_filtered(np.array([1.0, 2.0]), 5, {0, 1}) == []


class TestMostSimilarBatch:
    @settings(deadline=None, max_examples=40, derandomize=True)
    @given(
        n_words=st.integers(5, 40),
        dim=st.integers(2, 12),
        k=st.integers(1, 12),
        seed=st.integers(0, 10_000),
    )
    def test_equals_per_word_queries(self, n_words, dim, k, seed):
        model = make_model(n_words, dim, seed)
        rng = np.random.default_rng(seed + 1)
        queries = [
            f"w{i}"
            for i in rng.choice(
                n_words, size=min(n_words, 5), replace=False
            )
        ]
        exclude = {f"w{i}" for i in rng.integers(0, n_words, size=3)}
        batched = model.most_similar_batch(queries, k=k, exclude=exclude)
        reference = [
            model.most_similar(w, k=k, exclude=exclude) for w in queries
        ]
        assert [[w for w, _ in row] for row in batched] == [
            [w for w, _ in row] for row in reference
        ]
        for row_b, row_r in zip(batched, reference):
            for (_, sb), (_, sr) in zip(row_b, row_r):
                assert sb == pytest.approx(sr, abs=1e-12)

    def test_empty_frontier(self):
        model = make_model(6, 4, 0)
        assert model.most_similar_batch([], k=3) == []


class TestExpandLexiconParity:
    @settings(deadline=None, max_examples=30, derandomize=True)
    @given(
        n_words=st.integers(8, 50),
        dim=st.integers(2, 10),
        k=st.integers(1, 8),
        n_seeds=st.integers(1, 4),
        min_similarity=st.floats(-0.5, 0.9),
        max_size=st.integers(4, 40),
        seed=st.integers(0, 10_000),
    )
    def test_batched_equals_reference(
        self, n_words, dim, k, n_seeds, min_similarity, max_size, seed
    ):
        model = make_model(n_words, dim, seed)
        seeds = [f"w{i}" for i in range(min(n_seeds, max_size))]
        kwargs = dict(
            k=k,
            max_size=max_size,
            min_similarity=min_similarity,
            max_rounds=6,
        )
        batched = expand_lexicon(model, seeds, **kwargs)
        reference = expand_lexicon_reference(model, seeds, **kwargs)
        assert batched == reference
