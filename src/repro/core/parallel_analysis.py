"""Parallel sharded comment analysis with a deterministic merge.

Comment analysis (trie-Viterbi segmentation + batched NB sentiment) was
the last serial O(corpus) stage in the pipeline: extraction, scoring and
serving all shard or chunk, but every comment still flowed through one
process.  The corpus is embarrassingly parallel -- each comment's
analysis is a pure function of its text -- *except* for one piece of
shared mutable state: the :class:`~repro.core.interning.TokenInterner`,
which assigns ids in first-seen order.  Naively sharing it across
processes would either serialize on a lock or produce schedule-dependent
id assignments, breaking the repo-wide bit-identity discipline.

This module parallelizes around that state instead:

1. the corpus is split into ``ceil(len(records) / chunk_size)``
   **deterministic contiguous near-equal chunks** (a pure function of
   ``len(records)`` and ``chunk_size`` -- never of worker count or
   scheduling);
2. the chunks run on the :mod:`repro.parallel` executor, whose
   initializer rebuilds a private analyzer in every worker from one
   pickled spec (:meth:`~repro.core.analyzer.SemanticAnalyzer.clone_spec`),
   so its **local interner** starts as an exact copy of the parent's
   (``base_vocab`` ids agree by construction) and grows independently;
3. each worker runs the extractor's chunk kernel
   (:meth:`~repro.core.features.FeatureExtractor.comment_columns`) and
   returns an :class:`AnalysisShard`: the kernel's
   :class:`~repro.core.features.CommentColumns` (local-id ``int32``
   token arena + offsets + the nine stat columns) plus the worker
   vocabulary grown beyond the base and the worker's segmentation
   count;
4. the parent merges shards **in chunk order**:
   :func:`~repro.core.interning.merge_interners` adopts each shard's
   new words first-seen-chunk-first (reproducing the serial run's id
   assignment exactly -- see its docstring for the argument), and the
   shard's arena is translated with one vectorized
   :func:`~repro.core.interning.remap_ids` gather before being appended
   to the :class:`~repro.core.columnar.ColumnarCommentStore`.

The result is **bit-identical** to the serial run for any worker count
and chunk size: same feature matrix, same interner snapshot, same
per-item coverage.  Segmentation counts are merged back into the
parent analyzer so ``/stats`` gauges and the zero-resegmentation
assertions stay truthful on any number of CPUs.  Like the serial batch
path, the workers never touch the analysis cache.

The executor decides the worker count (``min(usable CPUs, chunks)``,
see :mod:`repro.parallel`); nothing here takes one.

Failure semantics: when the executor would run one worker the serial
path runs directly.  If worker processes cannot be spawned at
all (a sandboxed environment), the executor analyzes the same chunks
inline -- *counted* in :data:`ENGINE_STATS` and logged, never silent.
A worker that dies mid-run (OOM kill, segfault) raises
:class:`ParallelAnalysisError` before anything is appended: shards are
collected first, merged after, so a partial run never produces a
partial store.
"""

from __future__ import annotations

from collections.abc import Sequence
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from repro import parallel
from repro.core.features import (
    STAT_COLUMN_DTYPES,
    CommentColumns,
    _BatchComment,
)
from repro.core.interning import merge_interners, remap_ids

#: Engine activity counters (process-wide).  ``serial_fallbacks`` counts
#: runs that wanted workers but had to analyze in-process because the
#: environment refused to spawn them -- surfaced instead of swallowed.
ENGINE_STATS = {"parallel_runs": 0, "serial_fallbacks": 0}

#: Default comments per chunk; matches the store append batching.
DEFAULT_CHUNK_SIZE = 8192



class ParallelAnalysisError(RuntimeError):
    """A worker died mid-run; no partial results were committed."""


@dataclass
class AnalysisShard:
    """One chunk's analysis output in worker-local id space."""

    #: The chunk kernel's columns; token ids are worker-local.
    batch: CommentColumns
    #: Words the worker interned beyond its cloned base, local-id order.
    #: Cumulative across the worker's earlier chunks -- the shard's LUT
    #: must cover every id its arena can reference.
    new_words: list[str]
    #: Parent vocabulary size at clone time (ids below it are shared).
    base_vocab: int
    #: Segmentations this chunk cost the worker.
    n_segmentations: int


# -- worker side -------------------------------------------------------------


def make_worker_state(spec: bytes) -> dict:
    """Executor initializer: one worker's private extractor (no
    analysis cache), cloned from the pickled analyzer spec."""
    from repro.core.analyzer import SemanticAnalyzer
    from repro.core.features import FeatureExtractor

    analyzer = SemanticAnalyzer.from_spec(spec)
    return {
        "extractor": FeatureExtractor(analyzer, cache_size=None),
        "base_vocab": len(analyzer.interner),
    }


def _analyze_chunk_in_state(state: dict, texts: Sequence[str]) -> AnalysisShard:
    """Analyze one chunk under a worker state; emit its columnar shard.

    Runs the serial batch path's chunk kernel
    (:meth:`FeatureExtractor.comment_columns`: dedupe, segment, intern,
    one batched NB sentiment call, array-computed stat columns) and
    ships its payload as is.  The segmentation count is measured around
    the call so a worker processing many chunks reports each chunk's
    own cost.
    """
    extractor = state["extractor"]
    analyzer = extractor.analyzer
    seg_before = analyzer.n_segmentations
    batch = extractor.comment_columns(texts)
    base = state["base_vocab"]
    return AnalysisShard(
        batch=batch,
        new_words=analyzer.interner.words_from(base),
        base_vocab=base,
        n_segmentations=analyzer.n_segmentations - seg_before,
    )


def _analyze_chunk(texts: Sequence[str]) -> AnalysisShard:
    """Executor task; runs on the initializer-built worker state."""
    return _analyze_chunk_in_state(parallel.worker_state(), texts)


# -- parent side -------------------------------------------------------------


def _chunk_bounds(n: int, chunk_size: int) -> list[tuple[int, int]]:
    """Cut *n* records into ``ceil(n / chunk_size)`` contiguous chunks
    whose sizes differ by at most one.

    Equal cuts give no chunk less work than the others: 8,193 records
    become two chunks of about 4,096, not 8,192 plus one, so a second
    worker never starts for a sliver.  The store is the same for any
    cut.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    n_chunks = -(-n // chunk_size)
    return [
        (n * i // n_chunks, n * (i + 1) // n_chunks)
        for i in range(n_chunks)
    ]


def _run_shards(
    extractor, text_chunks: Sequence[Sequence[str]]
) -> list[AnalysisShard]:
    """Analyze every chunk on the executor, shards in chunk order.

    A worker dying mid-run raises :class:`ParallelAnalysisError`.
    """
    fallbacks = parallel.STATS["fallbacks"]
    try:
        shards = parallel.map_ordered(
            _analyze_chunk,
            text_chunks,
            initializer=make_worker_state,
            initargs=(extractor.analyzer.clone_spec(),),
        )
    except BrokenProcessPool as exc:
        raise ParallelAnalysisError(
            f"an analysis worker died mid-run ({exc}); no shards were "
            f"merged and no partial results were committed -- re-run, "
            f"or pin the process to one CPU (taskset -c 0) to analyze "
            f"inline"
        ) from exc
    if parallel.STATS["fallbacks"] > fallbacks:
        ENGINE_STATS["serial_fallbacks"] += 1
    else:
        ENGINE_STATS["parallel_runs"] += 1
    return shards


def _merge_shard(extractor, shard: AnalysisShard) -> np.ndarray:
    """Adopt one shard's vocabulary and return its remapped token arena.

    Also folds the shard's segmentation count into the parent analyzer.
    """
    interner = extractor.analyzer.interner
    lut = merge_interners(interner, shard.new_words, shard.base_vocab)
    extractor.analyzer.merge_counters(shard.n_segmentations)
    if not shard.new_words and len(interner) == shard.base_vocab:
        # Identity LUT: nothing grew anywhere yet, local ids == merged.
        return shard.batch.tokens
    return remap_ids(shard.batch.tokens, lut)


def analyze_many(
    store,
    extractor,
    records: Sequence,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> int:
    """Analyze *records* on the executor's workers and append to *store*.

    The parallel counterpart of
    :func:`repro.core.columnar.append_comments`: same deterministic
    chunking, same analysis, bit-identical store content (token arena,
    stat columns, interner snapshot) for any worker count -- only the
    ``timestamp`` column (wall clock at append) may differ from a
    serial run.  Neither path reads or writes the analysis cache.
    Returns the number of appended rows.

    When the executor would run one worker (one usable CPU, one chunk,
    or a call from inside another map) the serial path runs directly.
    """
    from repro.core.columnar import append_comments

    bounds = _chunk_bounds(len(records), chunk_size)
    if parallel.effective_workers(len(bounds)) <= 1:
        return append_comments(
            store, extractor, records, chunk_size=chunk_size
        )
    text_chunks = [
        [records[i].content for i in range(start, end)]
        for start, end in bounds
    ]
    shards = _run_shards(extractor, text_chunks)
    appended = 0
    for (start, end), shard in zip(bounds, shards):
        chunk = records[start:end]
        tokens = _merge_shard(extractor, shard)
        store.append_arrays(
            item_ids=[int(r.item_id) for r in chunk],
            comment_ids=[int(r.comment_id) for r in chunk],
            tokens=tokens,
            offsets=shard.batch.offsets,
            columns=shard.batch.columns,
        )
        appended += len(chunk)
    return appended


def analyze_stats_many(
    extractor,
    texts: Sequence[str],
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> CommentColumns:
    """Parallel equivalent of :meth:`FeatureExtractor.comment_stats_many`.

    No production path calls it: ``comment_stats_many`` serves small
    streaming batches serially.  It stays while the benchmark's tracer
    (``perfbench/spans.py``) wraps it by name.  Runs :func:`analyze_many`
    over *texts* into a scratch in-memory store and returns the store's
    columns: one row per text, in input order, equal to the serial
    batch with token ids in the merged (parent) id space.  Like
    :func:`analyze_many` it reads and writes no analysis cache.
    """
    from repro.core.columnar import ColumnarCommentStore

    store = ColumnarCommentStore(extractor._interner())
    analyze_many(
        store,
        extractor,
        [_BatchComment(0, i, text) for i, text in enumerate(texts)],
        chunk_size=chunk_size,
    )
    return CommentColumns(
        store.tokens(),
        store.offsets(),
        {name: store.column(name) for name in STAT_COLUMN_DTYPES},
    )
