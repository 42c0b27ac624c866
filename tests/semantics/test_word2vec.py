"""Tests for repro.semantics.word2vec."""

import numpy as np
import pytest

from repro.semantics.word2vec import Word2Vec
from tests.oracles.word2vec import epoch_pairs_reference


@pytest.fixture(scope="module")
def clustered_corpus():
    """Two word families that never co-occur across families."""
    rng = np.random.default_rng(30)
    family_a = [f"apple{i}" for i in range(8)]
    family_b = [f"brick{i}" for i in range(8)]
    sentences = []
    for __ in range(800):
        family = family_a if rng.random() < 0.5 else family_b
        n = rng.integers(3, 7)
        sentences.append([family[i] for i in rng.integers(0, 8, n)])
    return sentences


@pytest.fixture(scope="module")
def trained(clustered_corpus):
    return Word2Vec(
        dim=16, window=3, epochs=20, learning_rate=0.1,
        batch_size=256, min_count=1, subsample=0.0, seed=0
    ).fit(clustered_corpus)


class TestValidation:
    def test_bad_dim(self):
        with pytest.raises(ValueError):
            Word2Vec(dim=0)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            Word2Vec(window=0)

    def test_bad_negative(self):
        with pytest.raises(ValueError):
            Word2Vec(negative=0)

    def test_empty_after_pruning(self):
        with pytest.raises(ValueError):
            Word2Vec(min_count=100).fit([["a", "b"]])

    def test_no_usable_sentences(self):
        with pytest.raises(ValueError):
            Word2Vec(min_count=1).fit([["only"]])

    def test_unfitted_queries_raise(self):
        with pytest.raises(RuntimeError):
            Word2Vec().vector("x")


class TestTraining:
    def test_vocabulary_built(self, trained):
        assert len(trained.vocabulary) == 16

    def test_vector_shape(self, trained):
        assert trained.vector("apple0").shape == (16,)

    def test_contains(self, trained):
        assert "apple0" in trained
        assert "zebra" not in trained

    def test_unknown_word_raises(self, trained):
        with pytest.raises(KeyError):
            trained.vector("zebra")

    def test_min_count_prunes(self, clustered_corpus):
        corpus = clustered_corpus + [["rareword", "apple0"]]
        model = Word2Vec(dim=8, epochs=1, min_count=2, seed=0).fit(corpus)
        assert "rareword" not in model

    def test_deterministic(self, clustered_corpus):
        a = Word2Vec(dim=8, epochs=1, min_count=1, seed=3).fit(
            clustered_corpus
        )
        b = Word2Vec(dim=8, epochs=1, min_count=1, seed=3).fit(
            clustered_corpus
        )
        np.testing.assert_array_equal(a.vectors, b.vectors)


class TestGeometry:
    def test_within_family_closer_than_across(self, trained):
        within = trained.similarity("apple0", "apple1")
        across = trained.similarity("apple0", "brick1")
        assert within > across

    def test_similarity_symmetric(self, trained):
        ab = trained.similarity("apple0", "brick0")
        ba = trained.similarity("brick0", "apple0")
        assert ab == pytest.approx(ba)

    def test_self_similarity_is_one(self, trained):
        assert trained.similarity("apple0", "apple0") == pytest.approx(1.0)

    def test_normalized_vectors_unit_norm(self, trained):
        norms = np.linalg.norm(trained.normalized_vectors(), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_most_similar_prefers_family(self, trained):
        neighbors = [w for w, __ in trained.most_similar("apple0", k=5)]
        in_family = sum(1 for w in neighbors if w.startswith("apple"))
        assert in_family >= 4

    def test_most_similar_excludes_query(self, trained):
        neighbors = [w for w, __ in trained.most_similar("apple0", k=10)]
        assert "apple0" not in neighbors

    def test_most_similar_exclude_set(self, trained):
        banned = {"apple1", "apple2"}
        neighbors = [
            w for w, __ in trained.most_similar("apple0", k=5, exclude=banned)
        ]
        assert not banned & set(neighbors)

    def test_most_similar_scores_sorted(self, trained):
        scores = [s for __, s in trained.most_similar("apple0", k=8)]
        assert scores == sorted(scores, reverse=True)


class TestEpochPairsVectorized:
    """The vectorized pair builder must be bit-identical to the
    retained per-position reference (same RNG draws, same order)."""

    def _random_corpus(self, seed, n_sentences=40):
        rng = np.random.default_rng(seed)
        words = [f"w{i}" for i in range(30)]
        return [
            [words[i] for i in rng.integers(0, 30, size=rng.integers(1, 12))]
            for __ in range(n_sentences)
        ]

    @pytest.mark.parametrize("window", [1, 2, 5])
    @pytest.mark.parametrize("subsample", [0.0, 1e-2])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_matches_reference(self, window, subsample, seed):
        corpus = self._random_corpus(seed)
        model = Word2Vec(
            dim=4, window=window, epochs=1, min_count=1,
            subsample=subsample, seed=0,
        )
        model.fit(corpus)
        encoded = [
            s for s in (model.vocabulary.encode(t) for t in corpus)
            if len(s) >= 2
        ]
        keep_prob = (
            np.full(len(model.vocabulary), 0.8)
            if subsample > 0
            else np.ones(len(model.vocabulary))
        )
        fast = model._epoch_pairs(
            encoded, keep_prob, np.random.default_rng(seed)
        )
        reference = epoch_pairs_reference(
            model, encoded, keep_prob, np.random.default_rng(seed)
        )
        np.testing.assert_array_equal(fast[0], reference[0])
        np.testing.assert_array_equal(fast[1], reference[1])

    def test_empty_corpus_shape(self):
        model = Word2Vec(dim=4, window=2, epochs=1, min_count=1, seed=0)
        model.fit([["a", "b"]] * 3)
        fast = model._epoch_pairs([], np.ones(2), np.random.default_rng(0))
        assert fast[0].shape == (0,) and fast[1].shape == (0,)
