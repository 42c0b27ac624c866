"""White-box tests for the GBDT tree builder and word2vec pair logic."""

import numpy as np
import pytest

from repro.ml.gbdt import _BoostTree
from tests.oracles.gbdt import _BoostTreeBuilder


def make_builder(**kwargs):
    defaults = dict(
        max_depth=3,
        min_child_weight=1e-3,
        reg_lambda=1.0,
        gamma=0.0,
        colsample=1.0,
        rng=np.random.default_rng(0),
    )
    defaults.update(kwargs)
    return _BoostTreeBuilder(**defaults)


class TestBoostTreePredict:
    def test_hand_built_stump(self):
        # x <= 0.5 -> -1.0 else +2.0
        tree = _BoostTree(
            children_left=np.array([1, -1, -1]),
            children_right=np.array([2, -1, -1]),
            feature=np.array([0, -1, -1]),
            threshold=np.array([0.5, 0.0, 0.0]),
            leaf_weight=np.array([0.0, -1.0, 2.0]),
            split_gain=np.array([1.0, 0.0, 0.0]),
        )
        X = np.array([[0.0], [1.0], [0.5], [0.6]])
        np.testing.assert_allclose(
            tree.predict(X), [-1.0, 2.0, -1.0, 2.0]
        )

    def test_single_leaf_tree(self):
        tree = _BoostTree(
            children_left=np.array([-1]),
            children_right=np.array([-1]),
            feature=np.array([-1]),
            threshold=np.array([0.0]),
            leaf_weight=np.array([0.7]),
            split_gain=np.array([0.0]),
        )
        np.testing.assert_allclose(tree.predict(np.zeros((3, 2))), 0.7)


class TestBuilder:
    def test_leaf_weight_formula(self):
        """w* = -G / (H + lambda) at a forced leaf."""
        builder = make_builder(max_depth=0, reg_lambda=2.0)
        X = np.zeros((4, 1))
        grad = np.array([1.0, 1.0, -1.0, 3.0])  # G = 4
        hess = np.array([0.5, 0.5, 0.5, 0.5])  # H = 2
        tree, _ = builder.build(X, grad, hess, np.arange(4))
        assert tree.leaf_weight[0] == pytest.approx(-4.0 / (2.0 + 2.0))

    def test_split_reduces_loss(self):
        """A clean split separates opposing gradients."""
        builder = make_builder(max_depth=1)
        X = np.array([[0.0], [0.1], [0.9], [1.0]])
        grad = np.array([1.0, 1.0, -1.0, -1.0])
        hess = np.full(4, 0.25)
        tree, _ = builder.build(X, grad, hess, np.arange(4))
        assert (tree.feature != -1).sum() == 1
        internal = int(np.flatnonzero(tree.feature != -1)[0])
        assert 0.1 < tree.threshold[internal] < 0.9
        leaves = tree.leaf_weight[tree.feature == -1]
        # Left leaf (positive gradients) gets a negative weight and
        # vice versa.
        assert leaves.min() < 0 < leaves.max()

    def test_gamma_blocks_marginal_split(self):
        X = np.array([[0.0], [1.0]])
        grad = np.array([0.01, -0.01])
        hess = np.full(2, 0.25)
        greedy, _ = make_builder(max_depth=1, gamma=0.0).build(
            X, grad, hess, np.arange(2)
        )
        blocked, _ = make_builder(max_depth=1, gamma=10.0).build(
            X, grad, hess, np.arange(2)
        )
        assert (greedy.feature != -1).sum() >= (blocked.feature != -1).sum()
        assert (blocked.feature != -1).sum() == 0

    def test_min_child_weight_blocks_thin_children(self):
        X = np.array([[0.0], [1.0]])
        grad = np.array([1.0, -1.0])
        hess = np.full(2, 0.1)  # each child H = 0.1 < 0.5
        tree, _ = make_builder(max_depth=1, min_child_weight=0.5).build(
            X, grad, hess, np.arange(2)
        )
        assert (tree.feature != -1).sum() == 0

    def test_colsample_restricts_features(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 10))
        grad = np.where(X[:, 0] > 0, -1.0, 1.0)
        hess = np.full(200, 0.25)
        builder = make_builder(
            max_depth=2, colsample=0.2, rng=np.random.default_rng(5)
        )
        tree, _ = builder.build(X, grad, hess, np.arange(200))
        used = set(tree.feature[tree.feature != -1].tolist())
        assert len(used) <= 2  # 20% of 10 features


class TestWord2VecPairs:
    def test_window_bound_respected(self):
        from repro.semantics.word2vec import Word2Vec

        model = Word2Vec(
            dim=4, window=2, epochs=1, min_count=1, subsample=0.0, seed=0
        )
        sentence = ["a", "b", "c", "d", "e", "f", "g", "h"]
        model.fit([sentence] * 5)
        encoded = [model.vocabulary.encode(sentence)]
        rng = np.random.default_rng(0)
        centers, contexts = model._epoch_pairs(
            encoded, np.ones(len(model.vocabulary)), rng
        )
        # Every (center, context) pair must be within `window` positions.
        position = {model.vocabulary.word_id(w): i
                    for i, w in enumerate(sentence)}
        for c, ctx in zip(centers, contexts):
            assert 1 <= abs(position[int(c)] - position[int(ctx)]) <= 2

    def test_no_self_pairs(self):
        from repro.semantics.word2vec import Word2Vec

        model = Word2Vec(
            dim=4, window=3, epochs=1, min_count=1, subsample=0.0, seed=0
        )
        sentence = ["a", "b", "c", "d"]
        model.fit([sentence] * 5)
        encoded = [model.vocabulary.encode(sentence)]
        rng = np.random.default_rng(1)
        centers, contexts = model._epoch_pairs(
            encoded, np.ones(len(model.vocabulary)), rng
        )
        # Distinct words: a center never pairs with its own position
        # (same id can appear for repeated words, but not here).
        assert np.all(centers != contexts)
