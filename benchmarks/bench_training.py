"""Training-stack benchmark: histogram GBDT, parallel CV, batched k-NN.

Measures the three training-path optimizations against the reference
implementations in ``tests/oracles/``:

* **GBDT** -- ``GradientBoostingClassifier`` (the level-synchronous
  histogram engine) vs the per-node histogram builder vs exact greedy
  split finding (sorted-column scan), both boosted by
  ``tests.oracles.gbdt.fit_reference``, on a synthetic D0-scale
  dataset, with the detector's hyperparameters;
* **cross-validation** -- five-fold CV over the Table III candidate
  classifiers, serial (one usable CPU, ``benchutil.one_cpu``) vs as
  shipped on all usable CPUs (the factories pickle, so the folds run on
  worker processes);
* **lexicon expansion** -- ``expand_lexicon`` through the batched
  one-matmul frontier scoring vs the retained per-word reference.

The benchmark *asserts* correctness before it reports timings:

* the level engine must be **byte-identical** to the per-node hist
  builder (trees and margins);
* hist and exact must land within ``MAX_F1_GAP`` (0.01) test-set F1 of
  each other, and hist must clear the speedup floor (``MIN_GBDT_SPEEDUP``
  = 3x at full scale; quick scale only sanity-checks >= 1x because
  binning amortizes over rows and rounds);
* ``cross_validate`` must return **bitwise identical** metric dicts on
  one CPU and on all of them, for every candidate classifier, without
  an executor fallback;
* both ``expand_lexicon`` paths must produce **identical** lexicons.

Results are written to ``BENCH_training.json`` at the repo root and
under ``benchmarks/results/``; quick runs write only the git-ignored
``*_quick.*`` files (``benchutil.write_outputs``).

Run standalone:

    PYTHONPATH=src python benchmarks/bench_training.py --quick

``--quick`` shrinks the dataset, round count and candidate set for the
CI smoke check (see ``scripts/verify.sh``); the default scale matches
the paper's D0 (>= 10k rows).
"""

from __future__ import annotations

import argparse
import sys
import time
from functools import partial
from pathlib import Path

import numpy as np

from benchutil import one_cpu, write_outputs

from repro import parallel
from repro.analysis.reporting import render_table
from repro.core.detector import CLASSIFIER_FACTORIES, SCALED_CLASSIFIERS
from repro.ml import GradientBoostingClassifier, StandardScaler
from repro.ml.metrics import f1_score
from repro.ml.model_selection import cross_validate
from repro.semantics.similarity import expand_lexicon
from repro.semantics.word2vec import Word2Vec
from repro.text.vocabulary import Vocabulary

REPO_ROOT = Path(__file__).parent.parent

# The reference implementations live in tests/oracles; a standalone
# `PYTHONPATH=src python benchmarks/...` run does not have the repo root
# on the path.
sys.path.insert(0, str(REPO_ROOT.resolve()))
from tests.oracles.gbdt import (  # noqa: E402
    decision_function_reference,
    fit_reference,
)
from tests.oracles.similarity import expand_lexicon_reference  # noqa: E402

#: Acceptance floor for hist over exact GBDT fit time at full scale.
MIN_GBDT_SPEEDUP = 3.0
#: Quick scale only sanity-checks that hist is not slower: the binning
#: setup amortizes over rows x boosting rounds, so the speedup is
#: scale-dependent (measured ~1.7x at 2k rows, >= 3x at D0 scale).
MIN_GBDT_SPEEDUP_QUICK = 1.0
#: Allowed hist-vs-exact held-out F1 difference (binning is lossy on
#: continuous features).
MAX_F1_GAP = 0.01
#: The quick test split is only a few hundred rows, so single-flip F1
#: noise dominates; the 0.01 criterion applies at D0 scale.
MAX_F1_GAP_QUICK = 0.03


def synthetic_d0(n: int, seed: int = 0):
    """A D0-shaped labeled set: 11 features, ~40% fraud, separable with
    noise (mirrors the paper's balanced pre-training set)."""
    rng = np.random.default_rng(seed)
    n_features = 11
    X = rng.normal(size=(n, n_features))
    weights = rng.normal(size=n_features)
    margin = X @ weights + 0.5 * rng.normal(size=n)
    y = (margin > np.quantile(margin, 0.6)).astype(np.int64)
    n_test = n // 4
    return X[n_test:], y[n_test:], X[:n_test], y[:n_test]


def _assert_same_model(reference, other, X_train, label: str) -> None:
    """Byte-identity: trees (all node arrays) and training margins."""
    assert len(reference.trees_) == len(other.trees_), label
    for tree_a, tree_b in zip(reference.trees_, other.trees_):
        for field in (
            "children_left",
            "children_right",
            "feature",
            "threshold",
            "leaf_weight",
            "split_gain",
        ):
            assert np.array_equal(
                getattr(tree_a, field), getattr(tree_b, field)
            ), f"{label}: tree field {field} differs"
    assert np.array_equal(
        decision_function_reference(reference, X_train),
        decision_function_reference(other, X_train),
    ), f"{label}: margins differ"


def bench_gbdt(quick: bool) -> dict:
    """Level engine vs per-node hist vs exact, at detector settings.

    Asserts the engine's bit-identity to the per-node builder before
    reporting any timing.
    """
    n = 3000 if quick else 16000  # 12k train rows at full scale
    n_estimators = 30 if quick else 120
    X_train, y_train, X_test, y_test = synthetic_d0(n)
    out: dict[str, float] = {}

    params = dict(
        n_estimators=n_estimators, learning_rate=0.2, max_depth=4, seed=0
    )

    def fit_timed(key: str, fit) -> GradientBoostingClassifier:
        t0 = time.perf_counter()
        model = fit()
        out[f"{key}_fit_s"] = round(time.perf_counter() - t0, 3)
        out[f"{key}_test_f1"] = round(
            f1_score(y_test, model.predict(X_test)), 4
        )
        return model

    fit_timed(
        "exact",
        lambda: fit_reference(X_train, y_train, builder="exact", **params),
    )
    pernode = fit_timed(
        "hist_pernode",
        lambda: fit_reference(X_train, y_train, builder="pernode", **params),
    )
    engine = fit_timed(
        "hist",
        lambda: GradientBoostingClassifier(**params).fit(X_train, y_train),
    )
    _assert_same_model(pernode, engine, X_train, "engine vs pernode")

    out["n_train_rows"] = len(y_train)
    out["n_estimators"] = n_estimators
    out["speedup"] = round(out["exact_fit_s"] / out["hist_fit_s"], 2)
    out["engine_speedup_vs_pernode"] = round(
        out["hist_pernode_fit_s"] / out["hist_fit_s"], 2
    )
    out["engine_bit_identical"] = True  # asserted above
    out["f1_gap"] = round(abs(out["hist_test_f1"] - out["exact_test_f1"]), 4)
    return out


def bench_cross_validation(quick: bool) -> dict:
    """Serial vs all-CPU five-fold CV over the Table III candidates.

    The executor runs ``min(usable CPUs, 5 folds)`` worker processes;
    the bound factories pickle, so no run falls back inline.
    """
    n = 800 if quick else 3000
    X, y, _, _ = synthetic_d0(n, seed=1)
    X_scaled = StandardScaler().fit(X).transform(X)
    names = (
        ["xgboost", "decision_tree", "naive_bayes"]
        if quick
        else sorted(CLASSIFIER_FACTORIES)
    )

    def run_all() -> dict[str, dict[str, float]]:
        return {
            name: cross_validate(
                partial(CLASSIFIER_FACTORIES[name], 0),
                X_scaled if name in SCALED_CLASSIFIERS else X,
                y,
                n_splits=5,
                seed=0,
            )
            for name in names
        }

    fallbacks = parallel.STATS["fallbacks"]
    t0 = time.perf_counter()
    with one_cpu():
        reference = run_all()
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    scores = run_all()
    parallel_s = time.perf_counter() - t0
    for name in names:
        assert scores[name] == reference[name], (
            f"cross_validate({name}) differs between one CPU and all"
        )
    assert parallel.STATS["fallbacks"] == fallbacks, (
        "parallel CV fell back to inline execution"
    )
    return {
        "n_rows": n,
        "candidates": names,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "effective_workers": parallel.effective_workers(5),
        "bitwise_identical": True,  # asserted above
        "f1_per_candidate": {
            name: round(reference[name]["f1"], 4) for name in names
        },
    }


def make_lexicon_model(n_words: int, dim: int, seed: int = 0) -> Word2Vec:
    """A Word2Vec shell over random embeddings -- the query path does
    not care how the vectors were trained."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(n_words)]
    model = Word2Vec(dim=dim, min_count=1)
    model.vocabulary = Vocabulary.from_sentences([words])
    model._input = rng.normal(size=(n_words, dim))
    model._output = np.zeros((n_words, dim))
    return model


def bench_lexicon(quick: bool) -> dict:
    """Batched vs per-word-reference lexicon expansion."""
    n_words = 800 if quick else 5000
    model = make_lexicon_model(n_words, dim=16)
    seeds = [f"w{i}" for i in range(4)]
    kwargs = dict(k=10, max_size=200, min_similarity=0.35, max_rounds=20)
    results: dict[str, list[str]] = {}
    timings: dict[str, float] = {}
    repeats = 3 if quick else 5
    for method, expand in (
        ("reference", expand_lexicon_reference),
        ("batched", expand_lexicon),
    ):
        t0 = time.perf_counter()
        for _ in range(repeats):
            results[method] = expand(model, seeds, **kwargs)
        timings[method] = round((time.perf_counter() - t0) / repeats, 4)
    assert results["batched"] == results["reference"], (
        "batched expansion must produce the reference lexicon"
    )
    return {
        "vocab_size": n_words,
        "lexicon_size": len(results["batched"]),
        "reference_s": timings["reference"],
        "batched_s": timings["batched"],
        "speedup": round(
            timings["reference"] / max(timings["batched"], 1e-9), 2
        ),
        "identical": True,  # asserted above
    }


def run(quick: bool) -> dict:
    print("benchmarking GBDT hist vs exact ...", file=sys.stderr)
    gbdt = bench_gbdt(quick)
    print("benchmarking serial vs parallel CV ...", file=sys.stderr)
    cv = bench_cross_validation(quick)
    print("benchmarking lexicon expansion ...", file=sys.stderr)
    lexicon = bench_lexicon(quick)
    return {
        "quick": quick,
        "n_cpus": parallel.usable_cpus(),
        "gbdt": gbdt,
        "cv": cv,
        "lexicon": lexicon,
    }


def render(result: dict) -> str:
    rows = []
    for section in ("gbdt", "cv", "lexicon"):
        for key, value in result[section].items():
            rows.append([f"{section}.{key}", value])
    return render_table(
        ["quantity", "value"], rows, title="Training-stack performance"
    )


def check_acceptance(result: dict) -> None:
    gbdt = result["gbdt"]
    floor = MIN_GBDT_SPEEDUP_QUICK if result["quick"] else MIN_GBDT_SPEEDUP
    gap_cap = MAX_F1_GAP_QUICK if result["quick"] else MAX_F1_GAP
    assert gbdt["engine_bit_identical"], (
        "level engine diverged from the per-node hist builder"
    )
    assert gbdt["speedup"] >= floor, (
        f"hist GBDT only {gbdt['speedup']}x the exact path "
        f"(need >= {floor}x)"
    )
    assert gbdt["f1_gap"] <= gap_cap, (
        f"hist-vs-exact F1 gap {gbdt['f1_gap']} exceeds {gap_cap}"
    )
    assert result["cv"]["bitwise_identical"]
    assert result["lexicon"]["identical"]


def test_training_stack(benchmark):
    """Harness entry: same measurement inside the pytest bench run."""
    result = benchmark.pedantic(
        lambda: run(quick=True), rounds=1, iterations=1
    )
    write_outputs("training_stack", render(result), True, "training", result)
    check_acceptance(result)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small dataset and candidate subset for the CI smoke check",
    )
    args = parser.parse_args(argv)

    result = run(args.quick)
    write_outputs(
        "training_stack", render(result), args.quick, "training", result
    )
    check_acceptance(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
