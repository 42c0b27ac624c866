"""Serving throughput benchmark: micro-batched vs one-at-a-time.

Measures :class:`repro.serving.DetectionService` in its two extreme
configurations over the same synthetic feed:

* **one-at-a-time baseline** -- ``max_batch=1, max_delay_ms=0`` driven
  by a single closed-loop client: every score request pays its own
  scheduler wake-up and its own single-row classifier call (what a
  naive request-per-call server does);
* **micro-batched** -- ``max_batch=64`` with a small coalescing window,
  hammered by several pipelined clients: requests queued together are
  scored through **one** vectorized classifier call per batch.

Both configurations run over identical detector state, and the
benchmark *asserts* their per-item probabilities are identical, then
asserts the acceptance criterion: micro-batched throughput must be at
least ``MIN_SPEEDUP`` (2x) the baseline.  Results (req/s, p50/p99 batch
latency) are written to ``BENCH_serving.json`` at the repo root and
under ``benchmarks/results/``; quick runs write only the git-ignored
``*_quick.*`` files (``benchutil.write_outputs``).

Run standalone:

    PYTHONPATH=src python benchmarks/bench_serving_throughput.py --quick

``--quick`` shrinks the model and feed for the CI smoke check (see
``scripts/verify.sh``); the default scale matches the other benches.
"""

from __future__ import annotations

import argparse
import sys
import threading
import time

from benchutil import write_outputs

from repro.analysis.reporting import render_table
from repro.collector.records import CommentRecord
from repro.parallel import usable_cpus
from repro.serving import DetectionService


#: Acceptance floor: micro-batched req/s over one-at-a-time req/s.
MIN_SPEEDUP = 2.0

#: Micro-batch shape under test.
MAX_BATCH = 64
MAX_DELAY_MS = 5.0

#: Pipelined clients and their in-flight burst size (kept under the
#: default queue depth so the benchmark measures batching, not
#: load shedding).
N_CLIENTS = 8
BURST = 16


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
        d1 = build_d1(language, scale=0.002)
    else:
        cats, _ = train_cats(d0_scale=0.1)
        d1 = build_d1(scale=0.005)
    return cats, d1


def item_feed(d1, max_items: int) -> list[CommentRecord]:
    """One ingestable comment feed over the first *max_items* items."""
    feed: list[CommentRecord] = []
    for item in d1.items[:max_items]:
        for j, text in enumerate(item.comment_texts):
            feed.append(
                CommentRecord(
                    item_id=item.item_id,
                    comment_id=j,
                    content=text,
                    nickname="user",
                    user_exp_value=1,
                    client="pc",
                    date="2020-01-01",
                )
            )
    return feed


def make_service(cats, feed, **kwargs) -> DetectionService:
    """A started service pre-loaded with *feed* (ingest not measured)."""
    service = DetectionService(cats, rescore_growth=1.25, **kwargs).start()
    for start in range(0, len(feed), 200):
        service.feed(feed[start : start + 200])
    return service


def run_one_at_a_time(
    service: DetectionService, item_ids: list[int], rounds: int
) -> float:
    """Closed-loop single client, one item per request; returns seconds."""
    started = time.perf_counter()
    for _ in range(rounds):
        for item_id in item_ids:
            service.score([item_id])
    return time.perf_counter() - started


def run_micro_batched(
    service: DetectionService, item_ids: list[int], rounds: int
) -> float:
    """N pipelined clients, one item per request; returns seconds."""
    shards = [item_ids[i::N_CLIENTS] for i in range(N_CLIENTS)]
    shards = [shard for shard in shards if shard]
    barrier = threading.Barrier(len(shards) + 1)
    errors: list[BaseException] = []

    def client(shard: list[int]) -> None:
        barrier.wait()
        try:
            for _ in range(rounds):
                pending = []
                for item_id in shard:
                    pending.append(service.submit_score([item_id]))
                    if len(pending) >= BURST:
                        for future in pending:
                            future.result(timeout=60)
                        pending = []
                for future in pending:
                    future.result(timeout=60)
        except BaseException as exc:  # noqa: BLE001 - report to main
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(shard,)) for shard in shards
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    started = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started
    if errors:
        raise errors[0]
    return elapsed


def run(quick: bool, rounds: int) -> dict:
    print("building system ...", file=sys.stderr)
    cats, d1 = build_system(quick)
    feed = item_feed(d1, max_items=40 if quick else 200)
    item_ids = sorted({record.item_id for record in feed})
    n_requests = len(item_ids) * rounds

    baseline_service = make_service(
        cats, feed, max_batch=1, max_delay_ms=0.0, queue_depth=512
    )
    baseline_elapsed = run_one_at_a_time(
        baseline_service, item_ids, rounds
    )
    baseline_probabilities = baseline_service.score(item_ids)
    baseline_service.stop()

    batched_service = make_service(
        cats,
        feed,
        max_batch=MAX_BATCH,
        max_delay_ms=MAX_DELAY_MS,
        queue_depth=512,
    )
    batched_elapsed = run_micro_batched(batched_service, item_ids, rounds)
    batched_probabilities = batched_service.score(item_ids)
    batched_stats = batched_service.stats()
    batched_service.stop()

    assert batched_probabilities == baseline_probabilities, (
        "micro-batched scoring must be bit-identical to one-at-a-time"
    )

    baseline_rps = n_requests / baseline_elapsed
    batched_rps = n_requests / batched_elapsed
    result = {
        "n_cpus": usable_cpus(),
        "n_items": len(item_ids),
        "n_requests": n_requests,
        "feed_records": len(feed),
        "max_batch": MAX_BATCH,
        "max_delay_ms": MAX_DELAY_MS,
        "n_clients": N_CLIENTS,
        "one_at_a_time_rps": round(baseline_rps, 1),
        "micro_batched_rps": round(batched_rps, 1),
        "speedup": round(batched_rps / baseline_rps, 2),
        "batch_latency_p50_ms": batched_stats.get("batch_latency_p50_ms"),
        "batch_latency_p99_ms": batched_stats.get("batch_latency_p99_ms"),
        "mean_batch_size": batched_stats.get("mean_batch_size"),
    }
    return result


def render(result: dict) -> str:
    rows = [[key, value] for key, value in result.items()]
    return render_table(
        ["quantity", "value"], rows, title="Serving throughput"
    )


def check_speedup(result: dict) -> None:
    assert result["speedup"] >= MIN_SPEEDUP, (
        f"micro-batched throughput only {result['speedup']}x the "
        f"one-at-a-time baseline (need >= {MIN_SPEEDUP}x)"
    )


def test_serving_throughput(benchmark, cats, d1):
    """Harness entry: same measurement inside the pytest bench run."""
    feed = item_feed(d1, max_items=200)
    item_ids = sorted({record.item_id for record in feed})
    service = make_service(
        cats, feed, max_batch=MAX_BATCH, max_delay_ms=MAX_DELAY_MS,
        queue_depth=512,
    )
    benchmark.pedantic(
        lambda: run_micro_batched(service, item_ids, rounds=1),
        rounds=1,
        iterations=1,
    )
    service.stop()
    result = run(quick=True, rounds=4)
    write_outputs(
        "serving_throughput", render(result), True, "serving", result
    )
    check_speedup(result)


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
        "serving_throughput", render(result), args.quick, "serving", result
    )
    check_speedup(result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
