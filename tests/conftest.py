"""Shared fixtures.

Expensive trained artifacts (language, analyzer, platforms, a trained
CATS instance) are session-scoped and deliberately small -- large-scale
behaviour is exercised by the benchmark harness, not the unit tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.analyzer import SemanticAnalyzer
from repro.core.config import (
    CATSConfig,
    LexiconConfig,
    Word2VecConfig,
)
from repro.core.system import CATS
from repro.datasets.builders import build_d0, build_semantic_corpus
from repro.ecommerce.generator import PlatformGenerator
from repro.ecommerce.language import SyntheticLanguage
from repro.ecommerce.profiles import eplatform_profile, taobao_profile


@pytest.fixture(scope="session")
def language() -> SyntheticLanguage:
    """A small shared language (smaller lexicon than default)."""
    return SyntheticLanguage(
        n_positive=60,
        n_negative=60,
        n_neutral=220,
        n_function=40,
        n_variant_sources=10,
        n_topics=6,
        seed=42,
    )


@pytest.fixture(scope="session")
def small_config() -> CATSConfig:
    """Config tuned for fast tests (small embeddings, small lexicons)."""
    return CATSConfig(
        lexicon=LexiconConfig(max_size=80, k_neighbors=8),
        word2vec=Word2VecConfig(dim=24, epochs=5, min_count=2),
    )


@pytest.fixture(scope="session")
def analyzer(language, small_config) -> SemanticAnalyzer:
    """A trained (small) semantic analyzer."""
    rng = np.random.default_rng(7)
    corpus = build_semantic_corpus(language, n_comments=2500, seed=11)
    docs, labels = language.sentiment_corpus(1200, rng)
    return SemanticAnalyzer.train(
        comment_corpus=corpus,
        dictionary=language.dictionary_weights(),
        sentiment_documents=docs,
        sentiment_labels=labels,
        positive_seeds=language.positive_seeds[:3],
        negative_seeds=language.negative_seeds[:3],
        config=small_config,
    )


@pytest.fixture(scope="session")
def taobao_platform(language):
    """A small Taobao-profile platform snapshot."""
    profile = taobao_profile().scaled(0.0005)
    return PlatformGenerator(profile, language, seed=5).generate()


@pytest.fixture(scope="session")
def eplatform(language):
    """A small E-platform-profile snapshot."""
    profile = eplatform_profile().scaled(0.0002)
    return PlatformGenerator(
        profile, language, seed=9, id_offset=500_000_000
    ).generate()


@pytest.fixture(scope="session")
def d0_small(language):
    """A small labeled D0-style training set."""
    return build_d0(language, scale=0.01, seed=23)


@pytest.fixture(scope="session")
def trained_cats(analyzer, small_config, d0_small) -> CATS:
    """A CATS instance pre-trained on the small D0."""
    cats = CATS(analyzer, config=small_config)
    cats.fit(d0_small.items, d0_small.labels)
    return cats


@pytest.fixture()
def cpus(monkeypatch):
    """Pretend the host has *n* usable CPUs, so executor tests clamp the
    same way (and reach real process pools) on any host."""
    from repro import parallel

    def set_cpus(n: int) -> None:
        monkeypatch.setattr(parallel, "usable_cpus", lambda: n)

    return set_cpus


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(1234)
