"""Ablation -- feature groups (beyond the paper; see DESIGN.md).

The paper groups its 11 features into word-level, semantic and
structural sets but never ablates them.  This bench trains the detector
with each group removed and with each group alone, quantifying how much
each level contributes -- the analysis that motivates the paper's
"identify more useful features" future-work direction.
"""

from functools import partial

import numpy as np
from conftest import write_result

from repro.analysis.reporting import render_table
from repro.core.features import FEATURE_NAMES
from repro.datasets.splits import balanced_sample, features_and_labels
from repro.ml import GradientBoostingClassifier, cross_validate

GROUPS = {
    "word": [
        "averagePositiveNumber",
        "averagePositive/NegativeNumber",
        "averageNgramNumber",
        "averageNgramRatio",
    ],
    "semantic": ["averageSentiment"],
    "structure": [
        "uniqueWordRatio",
        "averageCommentEntropy",
        "averageCommentLength",
        "sumCommentLength",
        "sumPunctuationNumber",
        "averagePunctuationRatio",
    ],
}


def _columns(names):
    return [FEATURE_NAMES.index(n) for n in names]


def test_feature_group_ablation(benchmark, cats, d0):
    n_per_class = min(400, d0.n_fraud, d0.n_normal)
    sample = balanced_sample(d0, n_per_class=n_per_class, seed=8)
    X, y = features_and_labels(sample, cats.feature_extractor)

    def cv(columns):
        return cross_validate(
            partial(GradientBoostingClassifier, n_estimators=60, seed=0),
            X[:, columns],
            y,
            n_splits=5,
            seed=0,
        )

    full = benchmark(lambda: cv(list(range(len(FEATURE_NAMES)))))

    rows = [["all features", full["precision"], full["recall"], full["f1"]]]
    results = {"all": full}
    for name, features in GROUPS.items():
        only = cv(_columns(features))
        without = cv(
            [
                i
                for i in range(len(FEATURE_NAMES))
                if FEATURE_NAMES[i] not in features
            ]
        )
        results[f"only {name}"] = only
        results[f"without {name}"] = without
        rows.append(
            [f"only {name}", only["precision"], only["recall"], only["f1"]]
        )
        rows.append(
            [
                f"without {name}",
                without["precision"],
                without["recall"],
                without["f1"],
            ]
        )
    text = render_table(
        ["configuration", "precision", "recall", "f1"],
        rows,
        title="Ablation -- feature groups (5-fold CV, balanced D0 sample)",
    )
    write_result("ablation_features", text)

    # Full feature set should not be materially worse than any single
    # group, and every group alone carries real signal.
    assert full["f1"] >= max(
        results["only word"]["f1"],
        results["only semantic"]["f1"],
        results["only structure"]["f1"],
    ) - 0.03
    for name in GROUPS:
        assert results[f"only {name}"]["f1"] > 0.5
