"""Streaming / batch feature-extraction throughput benchmark.

Measures the three extraction regimes this repo supports on one table:

* **batch serial** -- ``CATS.extract_features`` on one usable CPU
  (``benchutil.one_cpu``: every map inline; the baseline);
* **batch parallel** -- the same call as shipped: chunked multi-process
  extraction on all usable CPUs (the row names the worker count that
  ran);
* **streaming O(n^2) baseline** -- re-extracting an item's full comment
  buffer on every rescore (what ``StreamingDetector`` did before it
  kept running sums);
* **streaming incremental** -- the shipped running-sum path, where each
  comment is segmented exactly once.

It also *asserts* the incremental invariants so a regression cannot hide
behind noisy timings: scoring a 200-comment item's feed must issue
strictly fewer segmentation calls than the O(n^2) baseline (each comment
exactly once), and the incremental feature vector must be bit-identical
to batch extraction.

Run standalone (writes ``benchmarks/results/streaming_throughput.txt``,
or the git-ignored ``streaming_throughput_quick.txt`` with ``--quick``):

    PYTHONPATH=src python benchmarks/bench_streaming_throughput.py --quick

``--quick`` shrinks the datasets for the CI smoke check (see
``scripts/verify.sh``); the default scale matches the other benches.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from benchutil import one_cpu, write_outputs

from repro import parallel
from repro.analysis.reporting import render_table
from repro.collector.records import CommentRecord
from repro.core.config import CATSConfig, LexiconConfig, Word2VecConfig
from repro.core.features import FeatureExtractor, table2_rows
from repro.core.parallel_analysis import DEFAULT_CHUNK_SIZE
from repro.core.pipeline import train_cats
from repro.core.streaming import StreamingDetector
from repro.datasets.builders import build_d1
from repro.ecommerce.language import SyntheticLanguage


#: Comment count of the long-lived item used for the O(n) vs O(n^2)
#: streaming comparison (the PR's acceptance scenario).
STREAM_ITEM_COMMENTS = 200


def build_system(quick: bool):
    """(cats, d1) at quick or benchmark scale."""
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


def comment_feed(d1, n_comments: int) -> list[str]:
    """A feed of *n_comments* texts drawn from D1 items (recycled as one
    long-lived item's comment history)."""
    texts: list[str] = []
    for item in d1.items:
        texts.extend(item.comment_texts)
        if len(texts) >= n_comments:
            break
    if len(texts) < n_comments:
        texts = (texts * (n_comments // max(len(texts), 1) + 1))
    return texts[:n_comments]


def records_for(texts: list[str], item_id: int = 1) -> list[CommentRecord]:
    return [
        CommentRecord(
            item_id=item_id,
            comment_id=i,
            content=text,
            nickname="user",
            user_exp_value=1,
            client="pc",
            date="2020-01-01",
        )
        for i, text in enumerate(texts)
    ]


class SegmentationCounter:
    """Counting stub wrapped around the analyzer's segment call."""

    def __init__(self, analyzer) -> None:
        self.analyzer = analyzer
        self.calls = 0
        self._original = analyzer.segment

    def __enter__(self) -> "SegmentationCounter":
        def counting(text: str):
            self.calls += 1
            return self._original(text)

        self.analyzer.segment = counting
        return self

    def __exit__(self, *exc) -> None:
        self.analyzer.segment = self._original


def bench_batch(cats, d1):
    """(serial items/sec, parallel items/sec, n_items, workers that ran)."""
    items = d1.items
    t0 = time.perf_counter()
    with one_cpu():
        serial = cats.extract_features(items)
    serial_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    batch = cats.extract_features(items)
    parallel_time = time.perf_counter() - t0

    assert np.array_equal(serial, batch), (
        "parallel extraction must equal the serial matrix exactly"
    )
    n_comments = sum(len(item.comment_texts) for item in items)
    return (
        len(items) / serial_time,
        len(items) / parallel_time,
        len(items),
        parallel.effective_workers(-(-n_comments // DEFAULT_CHUNK_SIZE)),
    )


def bench_streaming(cats, texts: list[str]):
    """Stream one long-lived item; returns timing + segmentation counts.

    The incremental path rescoreds on every comment (rescore_growth=1.0,
    the worst case); the baseline replays what the pre-accumulator
    implementation did at the same rescore points: extract the entire
    buffer from scratch.
    """
    extractor = cats.feature_extractor
    analyzer = cats.analyzer
    floor = 3
    n_distinct = len(set(texts))

    extractor.clear_cache()  # cold analysis cache: deterministic counts
    with SegmentationCounter(analyzer) as counter:
        stream = StreamingDetector(
            cats, rescore_growth=1.0, min_comments_to_score=floor
        )
        t0 = time.perf_counter()
        stream.observe_many(records_for(texts))
        incremental_time = time.perf_counter() - t0
        incremental_calls = counter.calls
        state = stream._items[1]

    # Invariant 1: each *distinct* comment is segmented exactly once
    # (the running sums analyze each comment once; the shared analysis
    # cache collapses duplicate texts on top of that).
    assert incremental_calls == n_distinct, (
        f"incremental path segmented {incremental_calls} times for "
        f"{n_distinct} distinct comments"
    )
    # Invariant 2: running sums equal batch extraction bit-for-bit.
    streamed = table2_rows(np.array([state.table2_sums()]))[0]
    assert np.array_equal(streamed, extractor.extract(texts)), (
        "incremental features must be bit-identical to batch extraction"
    )

    # O(n^2) baseline through an *uncached* extractor -- what the
    # pre-accumulator, pre-cache implementation paid.
    baseline_extractor = FeatureExtractor(analyzer, cache_size=0)
    with SegmentationCounter(analyzer) as counter:
        t0 = time.perf_counter()
        for size in range(floor, len(texts) + 1):
            baseline_extractor.extract(texts[:size])
        baseline_time = time.perf_counter() - t0
        baseline_calls = counter.calls

    # Invariant 3 (the acceptance criterion): strictly fewer
    # segmentation calls than the O(n^2) re-extraction baseline.
    assert incremental_calls < baseline_calls, (
        f"incremental ({incremental_calls}) not below baseline "
        f"({baseline_calls})"
    )
    return {
        "n_comments": len(texts),
        "incremental_time": incremental_time,
        "baseline_time": baseline_time,
        "incremental_calls": incremental_calls,
        "baseline_calls": baseline_calls,
    }


def render_rows(
    n_items, serial_ips, parallel_ips, workers, stream_stats
) -> str:
    n = stream_stats["n_comments"]
    rows = [
        ["batch items", n_items],
        ["batch serial items/sec", round(serial_ips, 1)],
        [
            f"batch parallel items/sec ({workers} workers)",
            round(parallel_ips, 1),
        ],
        ["stream item comments", n],
        [
            "stream O(n^2) comments/sec",
            round(n / stream_stats["baseline_time"], 1),
        ],
        [
            "stream incremental comments/sec",
            round(n / stream_stats["incremental_time"], 1),
        ],
        ["segmentation calls O(n^2)", stream_stats["baseline_calls"]],
        ["segmentation calls incremental", stream_stats["incremental_calls"]],
        [
            "stream speedup",
            round(
                stream_stats["baseline_time"]
                / stream_stats["incremental_time"],
                1,
            ),
        ],
    ]
    return render_table(
        ["quantity", "value"],
        rows,
        title="Streaming / batch extraction throughput",
    )


def test_streaming_throughput(benchmark, cats, d1):
    """Harness entry: same measurement inside the pytest bench run."""
    texts = comment_feed(d1, STREAM_ITEM_COMMENTS)
    serial_ips, parallel_ips, n_items, workers = bench_batch(cats, d1)
    stream_stats = bench_streaming(cats, texts)
    benchmark.pedantic(
        lambda: StreamingDetector(cats, rescore_growth=1.0).observe_many(
            records_for(texts)
        ),
        rounds=1,
        iterations=1,
    )
    write_outputs(
        "streaming_throughput",
        render_rows(n_items, serial_ips, parallel_ips, workers, stream_stats),
        quick=True,
    )
    assert stream_stats["incremental_calls"] < stream_stats["baseline_calls"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small datasets for the CI smoke check",
    )
    args = parser.parse_args(argv)

    print("building system ...", file=sys.stderr)
    cats, d1 = build_system(args.quick)

    serial_ips, parallel_ips, n_items, workers = bench_batch(cats, d1)
    stream_stats = bench_streaming(
        cats, comment_feed(d1, STREAM_ITEM_COMMENTS)
    )
    text = render_rows(
        n_items, serial_ips, parallel_ips, workers, stream_stats
    )
    write_outputs("streaming_throughput", text, args.quick)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
