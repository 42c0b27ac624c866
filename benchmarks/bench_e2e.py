"""End-to-end D1 benchmark: collect -> analyze -> extract -> detect.

The headline number for the deployment pipeline, at a scale-factored
paper-D1 size (``--scale`` is the fraction of the paper's ~1.48M-item
Taobao snapshot).  Six timed phases, one process:

* **collect** -- materialize the D1 platform slice (items + comments +
  evidence/expert labels) through the synthetic Taobao profile;
* **analyze** -- segment, intern and sentiment-score every comment
  through the vectorized extractor, appending each batch into a
  :class:`~repro.core.columnar.ColumnarCommentStore`; then persist the
  store (``persist_s``) through the atomic ``.npy`` writers.  On
  multi-core hosts the same corpus is first analyzed through the
  parallel sharded engine (``analyze_parallel_s``, all CPUs), and the
  resulting store is asserted bit-identical to the serial one -- the
  deterministic-merge guarantee of :mod:`repro.core.parallel_analysis`
  measured end to end.  1-CPU hosts skip the rerun: it would double
  bench wall time only to record a misleading "parallel" number;
* **extract (live)** -- the pre-columnar restart path: fold per-comment
  stats into the Table II feature matrix straight from analysis;
* **rehydrate** -- the post-columnar restart path: memory-map the
  persisted store and rebuild the same matrix by pure array slicing,
  with **zero** re-segmentation (asserted against the analyzer's
  segmentation counter);
* **detect** -- score the rehydrated matrix through the chunked
  deployment classifier;
* **train** -- fit the detector-settings GBDT on the D1-scale feature
  matrix through the level-synchronous histogram engine
  (:mod:`repro.ml.hist_engine`) -- the periodic-retraining cost of the
  mlops loop at this scale.

The benchmark *asserts* correctness before it reports timings:

* the rehydrated feature matrix must be **bit-identical**
  (``np.array_equal``, no tolerance) to the live-analysis matrix;
* rehydration must not segment a single comment
  (``analyzer.n_segmentations`` unchanged);
* rehydration must clear ``MIN_REHYDRATE_SPEEDUP`` (3x) over the live
  analyze+extract restart cost it replaces.

Wall time per phase and peak RSS are written to ``BENCH_e2e.json`` at
the repo root and under ``benchmarks/results/``.

Run standalone:

    PYTHONPATH=src python benchmarks/bench_e2e.py --quick

``--quick`` shrinks the model and D1 slice for the CI smoke check (see
``scripts/verify.sh``) and writes only the git-ignored ``*_quick.*``
files (``benchutil.write_outputs``), never the full-scale artifact.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from benchutil import peak_rss_mib, write_outputs

from repro.analysis.reporting import render_table
from repro.core.columnar import ColumnarCommentStore, append_comments
from repro.core.features import FeatureExtractor


#: Rows per scoring chunk -- the deployment default (matches
#: bench_table6).
SCORE_CHUNK_SIZE = 65536

#: Comments per analyze-and-append batch.
ANALYZE_CHUNK_SIZE = 8192

#: Acceptance floor: (analyze_s + extract_live_s) / rehydrate_s.  The
#: live path re-runs Viterbi segmentation and NB sentiment per comment;
#: rehydration is mmap + array slicing, so even the quick scale clears
#: this comfortably.
MIN_REHYDRATE_SPEEDUP = 3.0

#: D1 scale factors (fraction of the paper's ~1.48M-item snapshot).
#: Full matches the harness baseline (benchmarks/conftest.py); quick
#: matches the other smoke checks.
FULL_D1_SCALE = 0.01
QUICK_D1_SCALE = 0.001


def build_system(quick: bool):
    """(cats, language) pre-trained on D0, quick or benchmark scale."""
    from repro.core.config import (
        CATSConfig,
        LexiconConfig,
        Word2VecConfig,
    )
    from repro.core.pipeline import train_cats
    from repro.datasets.builders import default_language
    from repro.ecommerce.language import SyntheticLanguage

    if quick:
        language = SyntheticLanguage(
            n_positive=60,
            n_negative=60,
            n_neutral=220,
            n_function=40,
            n_variant_sources=10,
            n_topics=6,
            seed=42,
        )
        config = CATSConfig(
            lexicon=LexiconConfig(max_size=80, k_neighbors=8),
            word2vec=Word2VecConfig(dim=24, epochs=3, min_count=2),
        )
        cats, _ = train_cats(language, d0_scale=0.01, config=config)
    else:
        language = default_language()
        cats, _ = train_cats(language, d0_scale=0.1)
    return cats, language


def run(quick: bool, scale: float | None = None) -> dict:
    from repro.datasets.builders import build_d1

    d1_scale = scale if scale is not None else (
        QUICK_D1_SCALE if quick else FULL_D1_SCALE
    )
    print("training detector on D0 ...", file=sys.stderr)
    cats, language = build_system(quick)
    analyzer = cats.analyzer

    print(f"collect: building D1 at scale {d1_scale} ...", file=sys.stderr)
    t0 = time.perf_counter()
    d1 = build_d1(language, scale=d1_scale)
    collect_s = time.perf_counter() - t0
    records = d1.comment_records()

    with tempfile.TemporaryDirectory(prefix="bench_e2e_store_") as tmp:
        store_dir = Path(tmp) / "columnar"

        # Parallel analyze runs FIRST, on the pristine post-D0 interner,
        # so the deterministic shard merge does real vocabulary adoption
        # (running it second would find every D1 word already interned).
        # Skipped on 1-CPU hosts, where the rerun doubles wall time and
        # the recorded "parallel" number is pure overhead.
        n_cpus = os.cpu_count() or 1
        store_parallel = None
        analyze_parallel_s = None
        n_analyze_workers = None
        if n_cpus > 1:
            n_analyze_workers = n_cpus
            print(
                f"analyze (parallel): {len(records)} comments on "
                f"{n_analyze_workers} workers ...",
                file=sys.stderr,
            )
            extractor_parallel = FeatureExtractor(analyzer)
            store_parallel = ColumnarCommentStore(analyzer.interner)
            t0 = time.perf_counter()
            append_comments(
                store_parallel,
                extractor_parallel,
                records,
                chunk_size=ANALYZE_CHUNK_SIZE,
                n_workers=n_analyze_workers,
            )
            analyze_parallel_s = time.perf_counter() - t0
        else:
            print(
                "analyze (parallel): skipped on a 1-CPU host",
                file=sys.stderr,
            )

        print(
            f"analyze: {len(records)} comments through the extractor ...",
            file=sys.stderr,
        )
        extractor = FeatureExtractor(analyzer)
        store = ColumnarCommentStore(analyzer.interner)
        t0 = time.perf_counter()
        append_comments(
            store, extractor, records, chunk_size=ANALYZE_CHUNK_SIZE
        )
        analyze_s = time.perf_counter() - t0
        if store_parallel is not None:
            assert np.array_equal(
                np.asarray(store_parallel.tokens()),
                np.asarray(store.tokens()),
            ) and np.array_equal(
                np.asarray(store_parallel.offsets()),
                np.asarray(store.offsets()),
            ), (
                "parallel analyze must produce the serial token arena "
                "bit for bit"
            )
        t0 = time.perf_counter()
        store.save(store_dir)
        persist_s = time.perf_counter() - t0

        print("extract: live analysis path ...", file=sys.stderr)
        t0 = time.perf_counter()
        live = cats.extract_features(d1.items)
        extract_live_s = time.perf_counter() - t0

        print("rehydrate: memory-mapped store path ...", file=sys.stderr)
        segmentations_before = analyzer.n_segmentations
        t0 = time.perf_counter()
        loaded = ColumnarCommentStore.load(store_dir, mode="mmap")
        rehydrated = loaded.feature_matrix(
            [item.item_id for item in d1.items]
        )
        rehydrate_s = time.perf_counter() - t0
        assert analyzer.n_segmentations == segmentations_before, (
            "rehydration must not re-segment a single comment"
        )
        assert np.array_equal(live, rehydrated), (
            "columnar-rehydrated feature matrix must equal the "
            "live-analysis matrix bit for bit"
        )

        if store_parallel is not None:
            item_ids = [item.item_id for item in d1.items]
            assert np.array_equal(
                live, store_parallel.feature_matrix(item_ids)
            ), (
                "parallel-analyzed feature matrix must equal the "
                "live-analysis matrix bit for bit"
            )

        print("detect: chunked scoring ...", file=sys.stderr)
        t0 = time.perf_counter()
        report = cats.detect_with_features(
            d1.items, rehydrated, chunk_size=SCORE_CHUNK_SIZE
        )
        detect_s = time.perf_counter() - t0

        print(
            "train: detector-settings GBDT on the D1 matrix ...",
            file=sys.stderr,
        )
        from repro.ml import GradientBoostingClassifier

        retrain_model = GradientBoostingClassifier(
            n_estimators=30 if quick else 120,
            learning_rate=0.2,
            max_depth=4,
            seed=0,
        )
        t0 = time.perf_counter()
        retrain_model.fit(rehydrated, d1.labels)
        train_s = time.perf_counter() - t0

        store_stats = loaded.stats()

    total_s = collect_s + analyze_s + persist_s + extract_live_s
    total_s += rehydrate_s + detect_s + train_s
    return {
        "quick": quick,
        "d1_scale": d1_scale,
        "n_items": len(d1.items),
        "n_comments": len(records),
        "n_tokens": store_stats["tokens"],
        "vocab_size": store_stats["vocab_size"],
        "arena_mib": round(store_stats["arena_bytes"] / 2**20, 2),
        "collect_s": round(collect_s, 3),
        "analyze_s": round(analyze_s, 3),
        "analyze_parallel_s": (
            None if analyze_parallel_s is None
            else round(analyze_parallel_s, 3)
        ),
        "n_analyze_workers": n_analyze_workers,
        "n_cpus": n_cpus,
        "persist_s": round(persist_s, 3),
        "extract_live_s": round(extract_live_s, 3),
        "rehydrate_s": round(rehydrate_s, 3),
        "detect_s": round(detect_s, 3),
        "train_s": round(train_s, 3),
        "n_train_trees": retrain_model.n_estimators,
        "total_s": round(total_s, 3),
        "rehydrate_speedup": round(
            (analyze_s + extract_live_s) / max(rehydrate_s, 1e-9), 1
        ),
        "bit_identical": True,  # asserted above
        "resegmented": 0,  # asserted above
        "n_reported": report.n_reported,
        "score_chunk_size": SCORE_CHUNK_SIZE,
        "peak_rss_mib": round(peak_rss_mib(), 1),
    }


def render(result: dict) -> str:
    rows = [[key, value] for key, value in result.items()]
    return render_table(
        ["quantity", "value"],
        rows,
        title="End-to-end D1 pipeline (collect/analyze/extract/detect)",
    )


def check_acceptance(result: dict) -> None:
    assert result["bit_identical"]
    assert result["rehydrate_speedup"] >= MIN_REHYDRATE_SPEEDUP, (
        f"rehydration only {result['rehydrate_speedup']}x the live "
        f"restart path (need >= {MIN_REHYDRATE_SPEEDUP}x)"
    )


def test_e2e(benchmark):
    """Harness entry: same measurement inside the pytest bench run."""
    result = benchmark.pedantic(
        lambda: run(quick=True), rounds=1, iterations=1
    )
    write_outputs("e2e", render(result), True, "e2e", result)
    check_acceptance(result)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small model and D1 slice for the CI smoke check",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=None,
        help="override the D1 scale factor (fraction of paper size)",
    )
    args = parser.parse_args(argv)

    result = run(args.quick, scale=args.scale)
    write_outputs("e2e", render(result), args.quick, "e2e", result)
    check_acceptance(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
