"""Shadow-scoring overhead benchmark: plain vs shadowed serving.

Measures :class:`repro.serving.DetectionService` throughput twice over
the same pre-loaded feed and pipelined client load:

* **plain** -- the champion alone (the bench_serving micro-batched
  configuration);
* **shadowed** -- the same champion with a :class:`ShadowScorer`
  mirroring every micro-batch into a challenger model trained on half
  of D0.  The challenger shares the champion's analyzer, so the shadow
  re-uses the champion's feature extractor and per-item cache and pays
  only its own stage-2 classifier calls.

The shadow compares off the champion's response path (after score
futures resolve, on the scheduler thread), so it must cost wall-clock
throughput only, never correctness.  The benchmark *asserts* both
halves of that contract:

* champion per-item probabilities are **bit-identical** with the
  shadow on and off;
* plain throughput is at most ``MAX_OVERHEAD`` (1.5x) the shadowed
  throughput.

A phase lasts only tens of milliseconds at quick scale, so both
services stay up and each phase is timed ``REPEATS`` times, alternating
plain and shadowed, and the gate compares the median times.  Both
services preload the same feed through the champion's shared analysis
cache before any timing, and a score request re-scores an item only
from its running sums, so every repetition measures steady-state
scoring: the champion's micro-batched classifier calls plus, in the
shadowed phase, the mirrored challenger calls and delta bookkeeping --
not comment analysis.  The per-repetition req/s samples are reported.

Results are written to ``BENCH_shadow.json`` at the repo root and
under ``benchmarks/results/``; quick runs write only the git-ignored
``*_quick.*`` files (``benchutil.write_outputs``).

Run standalone:

    PYTHONPATH=src python benchmarks/bench_shadow.py --quick

``--quick`` shrinks the model and feed for the CI smoke check (see
``scripts/verify.sh``); the default scale matches the other benches.
"""

from __future__ import annotations

import argparse
import statistics
import sys

from benchutil import write_outputs
from bench_serving_throughput import (
    MAX_BATCH,
    MAX_DELAY_MS,
    REPEATS,
    item_feed,
    make_service,
    run_micro_batched,
)

from repro.analysis.reporting import render_table
from repro.core.system import CATS
from repro.mlops import ShadowScorer
from repro.parallel import usable_cpus


#: Acceptance ceiling: plain req/s over shadowed req/s.
MAX_OVERHEAD = 1.5


def build_system(quick: bool):
    """(champion, challenger, d1); the challenger shares the analyzer."""
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
        champion, d0 = train_cats(language, d0_scale=0.01, config=config)
        d1 = build_d1(language, scale=0.002)
    else:
        config = None
        champion, d0 = train_cats(d0_scale=0.1)
        d1 = build_d1(scale=0.005)
    half = len(d0.items) // 2
    challenger = CATS(champion.analyzer, config=config)
    challenger.fit(d0.items[:half], d0.labels[:half])
    return champion, challenger, d1


def run(quick: bool, rounds: int) -> dict:
    print("building champion + challenger ...", file=sys.stderr)
    champion, challenger, d1 = build_system(quick)
    feed = item_feed(d1, max_items=40 if quick else 200)
    item_ids = sorted({record.item_id for record in feed})
    n_requests = len(item_ids) * rounds

    plain_service = make_service(
        champion, feed, max_batch=MAX_BATCH, max_delay_ms=MAX_DELAY_MS,
        queue_depth=512,
    )
    shadow = ShadowScorer(champion, challenger, rescore_growth=1.25)
    shadowed_service = make_service(
        champion, feed, max_batch=MAX_BATCH, max_delay_ms=MAX_DELAY_MS,
        queue_depth=512, shadow=shadow,
    )
    plain_times: list[float] = []
    shadowed_times: list[float] = []
    try:
        for _ in range(REPEATS):
            plain_times.append(
                run_micro_batched(plain_service, item_ids, rounds)
            )
            shadowed_times.append(
                run_micro_batched(shadowed_service, item_ids, rounds)
            )
        plain_probabilities = plain_service.score(item_ids)
        shadowed_probabilities = shadowed_service.score(item_ids)
    finally:
        plain_service.stop()
        shadowed_service.stop()

    assert shadowed_probabilities == plain_probabilities, (
        "champion scores must be bit-identical with the shadow on"
    )
    shadow_stats = shadow.stats()
    assert shadow_stats["scored"] > 0, "shadow never scored anything"

    plain_rps = n_requests / statistics.median(plain_times)
    shadowed_rps = n_requests / statistics.median(shadowed_times)
    result = {
        "n_cpus": usable_cpus(),
        "n_items": len(item_ids),
        "n_requests": n_requests,
        "feed_records": len(feed),
        "max_batch": MAX_BATCH,
        "max_delay_ms": MAX_DELAY_MS,
        "analysis_shared": shadow.analysis_shared,
        "repeats": REPEATS,
        "plain_rps": round(plain_rps, 1),
        "shadowed_rps": round(shadowed_rps, 1),
        "plain_rps_samples": [round(n_requests / t, 1) for t in plain_times],
        "shadowed_rps_samples": [
            round(n_requests / t, 1) for t in shadowed_times
        ],
        "overhead_factor": round(plain_rps / shadowed_rps, 3),
        "shadow_scored": shadow_stats["scored"],
        "shadow_flipped_verdicts": shadow_stats["flipped_verdicts"],
        "shadow_max_abs_delta": shadow_stats["max_abs_delta"],
    }
    return result


def render(result: dict) -> str:
    rows = [[key, value] for key, value in result.items()]
    return render_table(
        ["quantity", "value"], rows, title="Shadow-scoring overhead"
    )


def check_overhead(result: dict) -> None:
    assert result["overhead_factor"] <= MAX_OVERHEAD, (
        f"shadow scoring costs {result['overhead_factor']}x plain "
        f"serving throughput (ceiling {MAX_OVERHEAD}x)"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small model and feed for the CI smoke check",
    )
    parser.add_argument(
        "--rounds",
        type=int,
        default=None,
        help="score rounds over the item set (default 4 quick, 8 full)",
    )
    args = parser.parse_args(argv)
    rounds = args.rounds or (4 if args.quick else 8)

    result = run(args.quick, rounds)
    write_outputs(
        "shadow_overhead", render(result), args.quick, "shadow", result
    )
    check_overhead(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
