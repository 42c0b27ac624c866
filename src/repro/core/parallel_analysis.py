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

1. the corpus is split into **deterministic contiguous chunks** (a pure
   function of ``len(records)`` and ``chunk_size`` -- never of worker
   count or scheduling);
2. the chunks run on the :mod:`repro.parallel` executor, whose
   initializer rebuilds a private analyzer in every worker from one
   pickled spec (:meth:`~repro.core.analyzer.SemanticAnalyzer.clone_spec`),
   so its **local interner** starts as an exact copy of the parent's
   (``base_vocab`` ids agree by construction) and grows independently;
3. each worker runs the extractor's chunk kernel
   (:meth:`~repro.core.features.FeatureExtractor.comment_columns`) and
   returns an :class:`AnalysisShard`: the kernel's columnar payload
   (local-id ``int32`` token arena + offsets + the nine stat columns)
   plus the worker vocabulary grown beyond the base and the worker's
   segmentation count;
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
assertions stay truthful under ``--workers``.  Like the serial batch
path, the workers build no per-comment objects and never touch the
analysis cache.

Failure semantics: when the executor clamps the run to one worker the
serial path runs directly.  If worker processes cannot be spawned at
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

    #: Interned token arena, worker-local ``int32`` ids, back to back.
    tokens: np.ndarray
    #: Arena offsets, length ``n_comments + 1`` (``offsets[0] == 0``).
    offsets: np.ndarray
    #: One array per :data:`~repro.core.columnar.STAT_COLUMN_NAMES`.
    columns: dict[str, np.ndarray]
    #: Words the worker interned beyond its cloned base, local-id order.
    #: Cumulative across the worker's earlier chunks -- the shard's LUT
    #: must cover every id its arena can reference.
    new_words: list[str]
    #: Parent vocabulary size at clone time (ids below it are shared).
    base_vocab: int
    #: Segmentations this chunk cost the worker.
    n_segmentations: int

    @property
    def n_comments(self) -> int:
        return len(self.offsets) - 1


# -- worker side -------------------------------------------------------------


def make_worker_state(spec: bytes, cache_size: int | None) -> dict:
    """Executor initializer: one worker's private extractor, cloned
    from the pickled analyzer spec."""
    from repro.core.analyzer import SemanticAnalyzer
    from repro.core.features import FeatureExtractor

    analyzer = SemanticAnalyzer.from_spec(spec)
    extractor = FeatureExtractor(analyzer, cache_size=cache_size)
    return {
        "extractor": extractor,
        "base_vocab": len(analyzer.interner),
    }


def worker_initargs(extractor) -> tuple[bytes, int | None]:
    """:func:`make_worker_state` arguments that clone *extractor*."""
    cache = extractor._cache
    return (
        extractor.analyzer.clone_spec(),
        cache.maxsize if cache is not None else None,
    )


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
    tokens, offsets, columns = extractor.comment_columns(texts)
    base = state["base_vocab"]
    return AnalysisShard(
        tokens=tokens,
        offsets=offsets,
        columns=columns,
        new_words=analyzer.interner.words_from(base),
        base_vocab=base,
        n_segmentations=analyzer.n_segmentations - seg_before,
    )


def _analyze_chunk(texts: Sequence[str]) -> AnalysisShard:
    """Executor task; runs on the initializer-built worker state."""
    return _analyze_chunk_in_state(parallel.worker_state(), texts)


# -- parent side -------------------------------------------------------------


def _chunk_bounds(n: int, chunk_size: int) -> list[tuple[int, int]]:
    """Deterministic contiguous chunk bounds over *n* records."""
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    return [
        (start, min(start + chunk_size, n))
        for start in range(0, n, chunk_size)
    ]


def _run_shards(
    extractor,
    text_chunks: Sequence[Sequence[str]],
    n_workers: int,
) -> list[AnalysisShard]:
    """Analyze every chunk on the executor, shards in chunk order.

    A worker dying mid-run raises :class:`ParallelAnalysisError`.
    """
    fallbacks = parallel.STATS["fallbacks"]
    try:
        shards = parallel.map_ordered(
            _analyze_chunk,
            text_chunks,
            n_workers,
            initializer=make_worker_state,
            initargs=worker_initargs(extractor),
        )
    except BrokenProcessPool as exc:
        raise ParallelAnalysisError(
            f"an analysis worker died mid-run ({exc}); no shards were "
            f"merged and no partial results were committed -- re-run, "
            f"or analyze serially with n_workers=1"
        ) from exc
    if parallel.STATS["fallbacks"] > fallbacks:
        ENGINE_STATS["serial_fallbacks"] += 1
    else:
        ENGINE_STATS["parallel_runs"] += 1
    return shards


def _merge_shard(extractor, shard: AnalysisShard) -> np.ndarray:
    """Adopt one shard's vocabulary and return its remapped arena.

    Also folds the shard's segmentation count into the parent analyzer.
    """
    interner = extractor.analyzer.interner
    lut = merge_interners(interner, shard.new_words, shard.base_vocab)
    extractor.analyzer.merge_counters(shard.n_segmentations)
    if not shard.new_words and len(interner) == shard.base_vocab:
        # Identity LUT: nothing grew anywhere yet, local ids == merged.
        return shard.tokens
    return remap_ids(shard.tokens, lut)


def analyze_many(
    store,
    extractor,
    records: Sequence,
    n_workers: int | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> int:
    """Analyze *records* on *n_workers* processes and append to *store*.

    The parallel counterpart of
    :func:`repro.core.columnar.append_comments`: same deterministic
    chunking, same analysis, bit-identical store content (token arena,
    stat columns, interner snapshot) for any worker count -- only the
    ``timestamp`` column (wall clock at append) may differ from a
    serial run.  Neither path reads or writes the analysis cache.
    Returns the number of appended rows.

    When the executor would run one worker (``n_workers`` of
    ``None``/``0``/``1``, one usable CPU, or one chunk) the serial path
    runs directly.
    """
    from repro.core.columnar import append_comments

    bounds = _chunk_bounds(len(records), chunk_size)
    if parallel.effective_workers(n_workers, len(bounds)) <= 1:
        return append_comments(
            store, extractor, records, chunk_size=chunk_size
        )
    text_chunks = [
        [records[i].content for i in range(start, end)]
        for start, end in bounds
    ]
    shards = _run_shards(extractor, text_chunks, n_workers)
    appended = 0
    for (start, end), shard in zip(bounds, shards):
        chunk = records[start:end]
        tokens = _merge_shard(extractor, shard)
        store.append_arrays(
            item_ids=[int(r.item_id) for r in chunk],
            comment_ids=[int(r.comment_id) for r in chunk],
            tokens=tokens,
            offsets=shard.offsets,
            columns=shard.columns,
        )
        appended += len(chunk)
    return appended


def analyze_stats_many(
    extractor,
    texts: Sequence[str],
    n_workers: int,
    chunk_size: int | None = None,
) -> list:
    """Parallel equivalent of :meth:`FeatureExtractor.comment_stats_many`.

    No production path calls it: ``comment_stats_many`` serves small
    streaming batches serially.  It stays while the benchmark's tracer
    (``perfbench/spans.py``) wraps it by name.  Analyzes *texts* on workers,
    merges vocabularies deterministically, and rebuilds per-comment
    :class:`~repro.core.features.CommentStats` in the parent with
    :func:`~repro.core.features.stats_from_columns` -- field-for-field
    equal to the serial objects, with ``token_ids`` already in the
    merged (parent) id space.  Duplicate texts share one stats object,
    and the parent cache is populated with the rebuilt entries,
    matching the serial path's behaviour.
    """
    from repro.core.features import CommentColumns, stats_from_columns

    if chunk_size is None:
        # Stats batches are typically served whole: one chunk per
        # worker minimizes per-chunk spec/pickle overhead.
        chunk_size = max(1, -(-len(texts) // max(1, n_workers)))
    bounds = _chunk_bounds(len(texts), chunk_size)
    text_chunks = [texts[start:end] for start, end in bounds]
    shards = _run_shards(extractor, text_chunks, n_workers)
    interner = extractor._interner()
    cache = extractor._cache
    results: list = []
    by_text: dict[str, object] = {}
    for (start, end), shard in zip(bounds, shards):
        batch = CommentColumns(
            _merge_shard(extractor, shard), shard.offsets, shard.columns
        )
        for text, stats in zip(
            texts[start:end], stats_from_columns(batch, interner)
        ):
            if text not in by_text:
                by_text[text] = stats
                if cache is not None:
                    cache.put(text, stats)
            results.append(by_text[text])
    return results
