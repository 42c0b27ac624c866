"""Comment-analysis pipeline benchmark: scalar vs vectorized path.

Measures per-comment analysis throughput in two implementations:

* **scalar reference** -- ``tests.oracles.features.comment_stats_scalar``:
  per-word Python loops, set intersections against the lexicons, one NB
  sentiment call per comment, no cache (the original implementation);
* **vectorized pipeline** -- ``FeatureExtractor.comment_stats_many``:
  the shared LRU analysis cache collapsing duplicate texts, and the
  chunk kernel (``FeatureExtractor.comment_columns``) over each batch's
  cache misses -- trie-driven Viterbi segmentation, one interned
  ``int32`` arena with array-computed stat columns, one *batched* NB
  sentiment call -- with per-comment objects built from its columns.

The feed replays each distinct comment ``DUPLICATE_FACTOR`` times in
shuffled order -- the regime the cache is built for (spam campaigns
paste identical comments under many listings; see
:mod:`repro.core.analysis_cache`).

The benchmark *asserts* correctness before it reports timings:

* the scalar and vectorized paths must produce **bit-identical**
  per-item feature matrices (``np.array_equal``, no tolerance);
* evicting and re-filling a deliberately tiny cache must reproduce the
  same statistics (eviction is invisible except in time);
* the vectorized path must clear ``MIN_SPEEDUP`` (3x) over the scalar
  reference on the duplicate-heavy feed.

Results are written to ``BENCH_pipeline.json`` at the repo root and
under ``benchmarks/results/``; quick runs write only the git-ignored
``*_quick.*`` files (``benchutil.write_outputs``).

Run standalone:

    PYTHONPATH=src python benchmarks/bench_comment_pipeline.py --quick

``--quick`` shrinks the model and feed for the CI smoke check (see
``scripts/verify.sh``); the default scale matches the other benches.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from benchutil import write_outputs

from repro.analysis.reporting import render_table
from repro.core.features import FeatureExtractor, ItemAccumulator

REPO_ROOT = Path(__file__).parent.parent

# The reference implementations live in tests/oracles; a standalone
# `PYTHONPATH=src python benchmarks/...` run does not have the repo root
# on the path.
sys.path.insert(0, str(REPO_ROOT.resolve()))
from tests.oracles.features import comment_stats_scalar  # noqa: E402

#: Acceptance floor: vectorized comments/sec over scalar comments/sec
#: on the duplicate-heavy feed.
MIN_SPEEDUP = 3.0

#: How many times each distinct comment appears in the feed.
DUPLICATE_FACTOR = 6

#: Comments per pseudo-item when asserting matrix bit-identity.
ITEM_SIZE = 20


def build_system(quick: bool):
    """(cats, d1) at quick or benchmark scale."""
    from repro.core.config import (
        CATSConfig,
        LexiconConfig,
        Word2VecConfig,
    )
    from repro.core.pipeline import train_cats
    from repro.datasets.builders import build_d1
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
        d1 = build_d1(language, scale=0.001)
    else:
        cats, _ = train_cats(d0_scale=0.1)
        d1 = build_d1(scale=0.005)
    return cats, d1


def comment_feed(d1, n_distinct: int) -> list[str]:
    """A shuffled feed of *n_distinct* comments, each repeated
    ``DUPLICATE_FACTOR`` times."""
    distinct: list[str] = []
    seen: set[str] = set()
    for item in d1.items:
        for text in item.comment_texts:
            if text not in seen:
                seen.add(text)
                distinct.append(text)
                if len(distinct) >= n_distinct:
                    break
        if len(distinct) >= n_distinct:
            break
    feed = distinct * DUPLICATE_FACTOR
    np.random.default_rng(2024).shuffle(feed)
    return feed


def matrix_scalar(extractor: FeatureExtractor, texts: list[str]):
    """Per-pseudo-item feature matrix through the scalar reference."""
    rows = []
    for start in range(0, len(texts), ITEM_SIZE):
        accumulator = ItemAccumulator()
        for text in texts[start : start + ITEM_SIZE]:
            accumulator.add(comment_stats_scalar(extractor, text))
        rows.append(accumulator.to_vector())
    return np.vstack(rows)


def matrix_vectorized(extractor: FeatureExtractor, texts: list[str]):
    """The same matrix through the cached vectorized pipeline."""
    return np.vstack(
        [
            extractor.extract(texts[start : start + ITEM_SIZE])
            for start in range(0, len(texts), ITEM_SIZE)
        ]
    )


def check_eviction_refill(analyzer, texts: list[str]) -> None:
    """A tiny cache evicting constantly must change nothing but time."""
    tiny = FeatureExtractor(analyzer, cache_size=32)
    first = tiny.comment_stats_many(texts)
    info = tiny.cache_info()
    assert info.evictions > 0, (
        "eviction check needs a feed larger than the tiny cache"
    )
    second = tiny.comment_stats_many(texts)
    assert all(a == b for a, b in zip(first, second)), (
        "re-analyzing evicted texts must reproduce identical stats"
    )


def run(quick: bool) -> dict:
    print("building system ...", file=sys.stderr)
    cats, d1 = build_system(quick)
    analyzer = cats.analyzer
    texts = comment_feed(d1, n_distinct=150 if quick else 600)
    n = len(texts)

    # Correctness first: scalar and vectorized matrices must agree
    # bit-for-bit, and eviction must be invisible.
    scalar_extractor = FeatureExtractor(analyzer, cache_size=0)
    vector_extractor = FeatureExtractor(analyzer)
    reference = matrix_scalar(scalar_extractor, texts)
    assert np.array_equal(
        reference, matrix_vectorized(vector_extractor, texts)
    ), "vectorized matrix must equal the scalar reference exactly"
    check_eviction_refill(analyzer, texts)

    # Timed runs: fresh extractors, cold caches.
    scalar_timed = FeatureExtractor(analyzer, cache_size=0)
    t0 = time.perf_counter()
    for text in texts:
        comment_stats_scalar(scalar_timed, text)
    scalar_elapsed = time.perf_counter() - t0

    # The vectorized run consumes the feed in item-sized batches (the
    # shape streaming ingest delivers), so duplicates across batches
    # resolve through the shared cache rather than in-batch dedupe.
    vector_timed = FeatureExtractor(analyzer)
    t0 = time.perf_counter()
    for start in range(0, n, ITEM_SIZE):
        vector_timed.comment_stats_many(texts[start : start + ITEM_SIZE])
    vector_elapsed = time.perf_counter() - t0
    cache_info = vector_timed.cache_info()

    scalar_cps = n / scalar_elapsed
    vectorized_cps = n / vector_elapsed
    return {
        "n_comments": n,
        "n_distinct": len(set(texts)),
        "duplicate_factor": DUPLICATE_FACTOR,
        "scalar_cps": round(scalar_cps, 1),
        "vectorized_cps": round(vectorized_cps, 1),
        "speedup": round(vectorized_cps / scalar_cps, 2),
        "cache_hit_rate": round(cache_info.hit_rate, 4),
        "cache_hits": cache_info.hits,
        "cache_misses": cache_info.misses,
    }


def render(result: dict) -> str:
    rows = [[key, value] for key, value in result.items()]
    return render_table(
        ["quantity", "value"],
        rows,
        title="Comment-analysis pipeline throughput",
    )


def check_speedup(result: dict) -> None:
    assert result["speedup"] >= MIN_SPEEDUP, (
        f"vectorized pipeline only {result['speedup']}x the scalar "
        f"reference (need >= {MIN_SPEEDUP}x)"
    )


def test_comment_pipeline(benchmark, cats, d1):
    """Harness entry: same measurement inside the pytest bench run."""
    texts = comment_feed(d1, n_distinct=600)
    extractor = FeatureExtractor(cats.analyzer)
    benchmark.pedantic(
        lambda: extractor.comment_stats_many(texts),
        rounds=1,
        iterations=1,
    )
    result = run(quick=True)
    write_outputs("comment_pipeline", render(result), True, "pipeline", result)
    check_speedup(result)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small model and feed for the CI smoke check",
    )
    args = parser.parse_args(argv)

    result = run(args.quick)
    write_outputs(
        "comment_pipeline", render(result), args.quick, "pipeline", result
    )
    check_speedup(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
