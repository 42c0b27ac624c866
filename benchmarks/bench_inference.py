"""Inference-engine benchmark: packed-arena vs per-tree scoring.

Measures :mod:`repro.ml.inference` against the per-tree reference loop
(``tests.oracles.gbdt.decision_function_reference``) at deployment scale:
a D1-sized batch (200k rows x 11 features) through the detector's
production ensemble shape (120 trees, depth 4).

The benchmark *asserts* bit-identity before it reports timings:

* the packed margin must be ``np.array_equal`` to the per-tree
  reference (not merely close);
* chunked detector scoring
  (``Detector.predict_proba(chunk_size=65536)``, the one place scoring
  is chunked) must be ``np.array_equal`` to the unchunked result;
* the packed path must clear the speedup floor (``MIN_SPEEDUP`` = 3x
  at full scale; quick scale only sanity-checks >= 1x because the
  arena setup amortizes over rows).

Results are written to ``BENCH_inference.json`` at the repo root and
under ``benchmarks/results/``.

Run standalone:

    PYTHONPATH=src python benchmarks/bench_inference.py --quick

``--quick`` shrinks the batch and ensemble for the CI smoke check (see
``scripts/verify.sh``); the default scale matches the D1 deployment
batch.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro import parallel
from repro.analysis.reporting import render_table
from repro.core.detector import Detector
from repro.ml import GradientBoostingClassifier

RESULTS_DIR = Path(__file__).parent / "results"
REPO_ROOT = Path(__file__).parent.parent

# The reference implementations live in tests/oracles; a standalone
# `PYTHONPATH=src python benchmarks/...` run does not have the repo root
# on the path.
sys.path.insert(0, str(REPO_ROOT.resolve()))
from tests.oracles.gbdt import decision_function_reference  # noqa: E402

#: Acceptance floor for packed over per-tree scoring at full scale.
MIN_SPEEDUP = 3.0
#: Quick scale only sanity-checks that packed is not slower: the
#: transpose + buffer setup amortizes over rows, so the speedup is
#: batch-size dependent (measured ~3.6x at 200k rows).
MIN_SPEEDUP_QUICK = 1.0

CHUNK_SIZE = 65536
TIMING_REPEATS = 3


def synthetic_scoring_task(quick: bool):
    """Detector-shaped model, its training set and a deployment-sized
    batch.

    Training data is small (the model shape is what matters); the
    scoring batch is D1-sized at full scale.
    """
    n_train = 2000 if quick else 4000
    n_score = 20_000 if quick else 200_000
    n_estimators = 30 if quick else 120
    n_features = 11
    rng = np.random.default_rng(7)
    X_train = rng.normal(size=(n_train, n_features))
    weights = rng.normal(size=n_features)
    margin = X_train @ weights + 0.5 * rng.normal(size=n_train)
    y_train = (margin > np.quantile(margin, 0.6)).astype(np.int64)
    model = GradientBoostingClassifier(
        n_estimators=n_estimators,
        learning_rate=0.2,
        max_depth=4,
        seed=0,
    ).fit(X_train, y_train)
    X_score = rng.normal(size=(n_score, n_features))
    return model, X_train, y_train, X_score


def best_of(fn, repeats: int = TIMING_REPEATS) -> tuple[float, np.ndarray]:
    """(best wall time, last result) over *repeats* runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def run(quick: bool) -> dict:
    print("building detector-shaped ensemble ...", file=sys.stderr)
    model, X_train, y_train, X = synthetic_scoring_task(quick)
    packed = model._packed_ensemble()
    out: dict[str, object] = {
        "quick": quick,
        "n_cpus": parallel.usable_cpus(),
        "n_rows": X.shape[0],
        "n_features": X.shape[1],
        "n_trees": len(model.trees_),
        "max_depth": model.max_depth,
        "arena_layout": packed.layout,
        "arena_slots": packed.n_slots,
    }

    print("timing per-tree reference ...", file=sys.stderr)
    ref_s, reference = best_of(lambda: decision_function_reference(model, X))
    print("timing packed arena ...", file=sys.stderr)
    packed_s, margins = best_of(lambda: model.decision_function(X))
    assert np.array_equal(margins, reference), (
        "packed margins must be bitwise identical to the per-tree reference"
    )

    print("timing unchunked + chunked detector scoring ...", file=sys.stderr)
    detector = Detector().fit(X_train, y_train)
    detector_s, whole = best_of(lambda: detector.predict_proba(X))
    chunk_s, chunked = best_of(
        lambda: detector.predict_proba(X, chunk_size=CHUNK_SIZE)
    )
    assert np.array_equal(chunked, whole), (
        "chunked probabilities must be bitwise identical to unchunked"
    )

    out.update(
        {
            "reference_s": round(ref_s, 3),
            "packed_s": round(packed_s, 3),
            "detector_s": round(detector_s, 3),
            "detector_chunked_s": round(chunk_s, 3),
            "chunk_size": CHUNK_SIZE,
            "speedup": round(ref_s / max(packed_s, 1e-9), 2),
            "rows_per_s_packed": int(X.shape[0] / max(packed_s, 1e-9)),
            "bitwise_identical": True,  # asserted above
        }
    )
    return out


def render(result: dict) -> str:
    rows = [[key, value] for key, value in result.items()]
    return render_table(
        ["quantity", "value"], rows, title="Packed-ensemble inference"
    )


def write_outputs(result: dict) -> None:
    """Full runs own ``BENCH_inference.json`` (the checked-in artifact);
    quick smoke runs write alongside it so they never clobber the
    full-scale numbers."""
    payload = json.dumps(result, indent=2) + "\n"
    name = (
        "BENCH_inference_quick.json"
        if result["quick"]
        else "BENCH_inference.json"
    )
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / name).write_text(payload, encoding="utf-8")
    if not result["quick"]:
        (REPO_ROOT / name).write_text(payload, encoding="utf-8")


def check_acceptance(result: dict) -> None:
    floor = MIN_SPEEDUP_QUICK if result["quick"] else MIN_SPEEDUP
    assert result["speedup"] >= floor, (
        f"packed scoring only {result['speedup']}x the per-tree "
        f"reference (need >= {floor}x)"
    )
    assert result["bitwise_identical"]


def test_inference_engine(benchmark):
    """Harness entry: same measurement inside the pytest bench run."""
    from conftest import write_result

    result = benchmark.pedantic(
        lambda: run(quick=True), rounds=1, iterations=1
    )
    write_outputs(result)
    write_result("inference_engine", render(result))
    check_acceptance(result)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small batch and ensemble for the CI smoke check",
    )
    args = parser.parse_args(argv)

    result = run(args.quick)
    write_outputs(result)
    text = render(result)
    (RESULTS_DIR / "inference_engine.txt").write_text(
        text + "\n", encoding="utf-8"
    )
    print(text)
    written = (
        str(RESULTS_DIR / "BENCH_inference_quick.json")
        if args.quick
        else f"{RESULTS_DIR / 'BENCH_inference.json'} and "
        f"{REPO_ROOT / 'BENCH_inference.json'}"
    )
    print(f"\nwrote {written}", file=sys.stderr)
    check_acceptance(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
