"""Ablation -- lexicon size (beyond the paper; see DESIGN.md).

The paper caps both expanded lexicons at ~200 words "for computation
efficiency" without reporting the sensitivity.  This bench sweeps the
cap and measures detector CV performance on a balanced D0 sample,
quantifying how much vocabulary the word-level features actually need.
"""

from functools import partial

import numpy as np
from conftest import write_result

from repro.analysis.reporting import render_table
from repro.core.analyzer import SemanticAnalyzer
from repro.core.config import LexiconConfig
from repro.core.features import FeatureExtractor
from repro.core.lexicon import build_lexicon_pair
from repro.datasets.splits import balanced_sample
from repro.ml import GradientBoostingClassifier, cross_validate

SIZES = (25, 50, 100, 200)


def test_lexicon_size_ablation(benchmark, cats, d0, language):
    n_per_class = min(250, d0.n_fraud, d0.n_normal)
    sample = balanced_sample(d0, n_per_class=n_per_class, seed=13)

    def evaluate(max_size):
        lexicon = build_lexicon_pair(
            cats.analyzer.word2vec,
            language.positive_seeds[:3],
            language.negative_seeds[:3],
            LexiconConfig(max_size=max_size),
        )
        analyzer = SemanticAnalyzer(
            segmenter=cats.analyzer.segmenter,
            word2vec=cats.analyzer.word2vec,
            sentiment=cats.analyzer.sentiment,
            lexicon=lexicon,
        )
        X = FeatureExtractor(analyzer).extract_items(sample.items)
        scores = cross_validate(
            partial(GradientBoostingClassifier, n_estimators=60, seed=0),
            X,
            sample.labels,
            n_splits=5,
            seed=0,
        )
        return lexicon, scores

    # Benchmark the smallest configuration (one full evaluate pass).
    benchmark.pedantic(lambda: evaluate(25), rounds=1, iterations=1)

    rows = []
    f1_by_size = {}
    for max_size in SIZES:
        lexicon, scores = evaluate(max_size)
        n_pos, n_neg = lexicon.sizes
        f1_by_size[max_size] = scores["f1"]
        rows.append(
            [
                max_size,
                n_pos,
                n_neg,
                scores["precision"],
                scores["recall"],
                scores["f1"],
            ]
        )
    text = render_table(
        ["cap", "|P|", "|N|", "precision", "recall", "f1"],
        rows,
        title="Ablation -- lexicon size cap (5-fold CV, balanced D0 sample)",
    )
    write_result("ablation_lexicon", text)

    # Even a 25-word lexicon carries most of the signal (the structural
    # and semantic features do not depend on it), and growing the cap
    # never hurts materially -- which is why the paper's "limit for
    # computation efficiency" is a safe engineering choice.
    assert f1_by_size[25] > 0.75
    assert f1_by_size[200] >= f1_by_size[25] - 0.05
