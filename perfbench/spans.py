"""Per-layer tracing from the benchmark's side.

:func:`install` wraps the public functions of each layer of the
program (nothing in ``src/`` is edited) so that every call adds its
wall time and its work counts to one in-process table.  Processes forked
by the program (the parallel analysis pool) inherit the wrappers; each
such worker writes its own table after every chunk it analyzes, and
:func:`collect` folds those files into the parent's table.

Only the traced run installs the wrappers: end-to-end figures come from
untraced runs, and the difference between the two is the tracing
overhead.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

#: Every per-layer metric, in report order, with its unit.  A workload
#: that never enters a layer reports 0 for it.
PER_LAYER = {
    "startup.import_ms": "ms",
    "persistence.load_cats_ms": "ms",
    "persistence.save_cats_ms": "ms",
    "collector.load_ms": "ms",
    "collector.records": "count",
    "text.segment_calls": "count",
    "text.comments_segmented": "count",
    "text.segment_ms": "ms",
    "semantics.sentiment_calls": "count",
    "semantics.docs_scored": "count",
    "semantics.sentiment_ms": "ms",
    "features.stats_calls": "count",
    "features.texts": "count",
    "features.stats_ms": "ms",
    "features.cache_hit_rate": "ratio",
    "parallel_analysis.calls": "count",
    "parallel_analysis.workers": "count",
    "parallel_analysis.ms": "ms",
    "parallel_analysis.fallbacks": "count",
    "columnar.append_rows": "count",
    "columnar.append_ms": "ms",
    "columnar.save_ms": "ms",
    "columnar.save_bytes": "bytes",
    "columnar.load_ms": "ms",
    "columnar.feature_matrix_ms": "ms",
    "streaming.records": "count",
    "streaming.duplicates": "count",
    "streaming.scorings": "count",
    "streaming.observe_ms": "ms",
    "streaming.rescore_ms": "ms",
    "streaming.restore_ms": "ms",
    "detector.predict_calls": "count",
    "detector.rows": "count",
    "detector.predict_ms": "ms",
    "rules.pass_ratio": "ratio",
    "inference.margins_calls": "count",
    "inference.rows_per_call": "rows",
    "inference.margins_ms": "ms",
    "gbdt.fits": "count",
    "gbdt.trees": "count",
    "gbdt.fit_ms": "ms",
    "model_selection.cv_ms": "ms",
    "model_selection.thread_fallbacks": "count",
    "registry.register_ms": "ms",
    "registry.promote_ms": "ms",
    "registry.load_champion_ms": "ms",
    "httpd.requests": "count",
    "httpd.handler_ms": "ms",
    "httpd.transport_ms": "ms",
    "batching.batches": "count",
    "batching.mean_batch_size": "count",
    "batching.batch_latency_p50_ms": "ms",
    "batching.rejected": "count",
    "checkpoint.writes": "count",
    "checkpoint.save_ms": "ms",
    "checkpoint.bytes": "bytes",
    "drift.observe_ms": "ms",
    "lookup_p50_ms": "ms",
    "lookup_tail_ms": "ms",
}


class Tracer:
    """Accumulates per-layer sums for one process."""

    def __init__(self, worker_dir: Path | None) -> None:
        self.pid = os.getpid()
        self.sums: defaultdict[str, float] = defaultdict(float)
        self.worker_dir = worker_dir
        self.is_worker = False
        #: CATS systems loaded in this process; their own counters
        #: (segmentations, analysis cache) are read at the end.
        self.systems: list = []

    def own(self) -> "Tracer":
        """Reset the table the first time a forked child records."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.sums = defaultdict(float)
            self.systems = []
            self.is_worker = True
        return self

    def dump_worker(self) -> None:
        if self.is_worker and self.worker_dir is not None:
            path = self.worker_dir / f"worker-{self.pid}.json"
            path.write_text(json.dumps(self.sums), encoding="utf-8")


_TRACER: Tracer | None = None


def _dir_bytes(path) -> int:
    path = Path(path)
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _arg(args, kwargs, index: int, name: str):
    """Positional-or-keyword argument of a wrapped call (self at 0)."""
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _wrap(owner, attr: str, ms_name: str | None, count) -> None:
    """Replace ``owner.attr`` with a timing/counting wrapper.

    *count* is ``(sums, args, kwargs, result) -> None`` and adds work
    counts.  Class- and static methods keep their descriptor kind.
    Module functions are also rebound in every ``repro`` module that
    imported them by name.
    """
    raw = inspect.getattr_static(owner, attr)
    kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
    func = raw.__func__ if kind else raw

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        tracer = _TRACER.own()
        start = time.perf_counter()
        result = func(*args, **kwargs)
        if ms_name is not None:
            tracer.sums[ms_name] += (time.perf_counter() - start) * 1000.0
        if count is not None:
            count(tracer, args, kwargs, result)
        return result

    setattr(owner, attr, kind(wrapper) if kind else wrapper)
    if inspect.ismodule(owner):
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and getattr(module, attr, None) is func:
                setattr(module, attr, wrapper)


def _add(**amounts):
    def count(tracer, args, kwargs, result):
        for name, amount in amounts.items():
            tracer.sums[name.replace("__", ".")] += amount
    return count


def install(worker_dir: Path | None = None) -> Tracer:
    """Install every layer wrapper in this process; returns the tracer."""
    global _TRACER
    from repro.collector.storage import DatasetStore
    from repro.core import parallel_analysis, persistence
    from repro.core.analyzer import SemanticAnalyzer
    from repro.core.columnar import ColumnarCommentStore
    from repro.core.detector import Detector
    from repro.core.features import FeatureExtractor
    from repro.core.rules import RuleFilter
    from repro.core.streaming import StreamingDetector
    from repro.ml import model_selection
    from repro.ml.gbdt import GradientBoostingClassifier
    from repro.ml.inference import PackedEnsemble
    from repro.mlops.drift import DriftMonitor
    from repro.mlops.registry import ModelRegistry
    from repro.semantics.sentiment import SentimentModel
    from repro.serving.checkpoint import CheckpointManager
    from repro.serving.httpd import DetectionRequestHandler

    if _TRACER is not None:
        return _TRACER
    _TRACER = Tracer(worker_dir)

    def loaded(tracer, args, kwargs, result):
        tracer.systems.append(result)

    _wrap(persistence, "load_cats", "persistence.load_cats_ms", loaded)
    _wrap(persistence, "save_cats", "persistence.save_cats_ms", None)

    def records(tracer, args, kwargs, result):
        tracer.sums["collector.records"] += len(result.comments)

    _wrap(DatasetStore, "load", "collector.load_ms", records)
    _wrap(SemanticAnalyzer, "segment", "text.segment_ms",
          _add(text__segment_calls=1))

    def docs(tracer, args, kwargs, result):
        tracer.sums["semantics.sentiment_calls"] += 1
        tracer.sums["semantics.docs_scored"] += len(result)

    _wrap(SentimentModel, "score_ids_many", "semantics.sentiment_ms", docs)
    _wrap(SentimentModel, "score_ids", "semantics.sentiment_ms",
          _add(semantics__sentiment_calls=1, semantics__docs_scored=1))

    def texts(tracer, args, kwargs, result):
        tracer.sums["features.stats_calls"] += 1
        tracer.sums["features.texts"] += len(result)

    _wrap(FeatureExtractor, "comment_stats_many", "features.stats_ms", texts)
    _wrap(FeatureExtractor, "comment_stats", "features.stats_ms",
          _add(features__stats_calls=1, features__texts=1))

    def engine(position):
        def count(tracer, args, kwargs, result):
            tracer.sums["parallel_analysis.calls"] += 1
            workers = _arg(args, kwargs, position, "n_workers") or 1
            tracer.sums["parallel_analysis.workers"] = max(
                tracer.sums["parallel_analysis.workers"], workers
            )
        return count

    _wrap(parallel_analysis, "analyze_many", "parallel_analysis.ms",
          engine(3))
    _wrap(parallel_analysis, "analyze_stats_many", "parallel_analysis.ms",
          engine(2))

    def chunk_done(tracer, args, kwargs, result):
        tracer.dump_worker()

    _wrap(parallel_analysis, "_analyze_chunk_in_state", None, chunk_done)

    def appended(tracer, args, kwargs, result):
        rows = _arg(args, kwargs, 1, "item_ids")
        tracer.sums["columnar.append_rows"] += len(rows)

    # ``append`` delegates to ``append_arrays``: wrapping the latter
    # alone counts every appended row once.
    _wrap(ColumnarCommentStore, "append_arrays", "columnar.append_ms",
          appended)

    def saved(tracer, args, kwargs, result):
        tracer.sums["columnar.save_bytes"] += _dir_bytes(args[0].directory)

    _wrap(ColumnarCommentStore, "save", "columnar.save_ms", saved)
    _wrap(ColumnarCommentStore, "load", "columnar.load_ms", None)
    _wrap(ColumnarCommentStore, "feature_matrix",
          "columnar.feature_matrix_ms", None)

    observe = StreamingDetector.observe

    def observe_counted(self, comment):
        tracer = _TRACER.own()
        before = self.n_duplicates
        start = time.perf_counter()
        result = observe(self, comment)
        tracer.sums["streaming.observe_ms"] += (
            time.perf_counter() - start
        ) * 1000.0
        tracer.sums["streaming.records"] += 1
        tracer.sums["streaming.duplicates"] += self.n_duplicates - before
        return result

    StreamingDetector.observe = functools.wraps(observe)(observe_counted)
    for name in ("force_rescore", "force_rescore_many"):
        _wrap(StreamingDetector, name, "streaming.rescore_ms", None)
    # A warm restart reads the newest checkpoint, then restores it.
    _wrap(CheckpointManager, "load_latest", "streaming.restore_ms", None)
    _wrap(StreamingDetector, "restore_state", "streaming.restore_ms", None)

    def predicted(tracer, args, kwargs, result):
        tracer.sums["detector.predict_calls"] += 1
        tracer.sums["detector.rows"] += len(args[1])

    _wrap(Detector, "predict_proba", "detector.predict_ms", predicted)
    _wrap(Detector, "detect", "detector.predict_ms", predicted)

    def evaluated(tracer, args, kwargs, result):
        mask = result[0]
        tracer.sums["rules.passed"] += int(mask.sum())
        tracer.sums["rules.evaluated"] += len(mask)

    def passed(tracer, args, kwargs, result):
        # One per-item rule check per streaming scoring.
        tracer.sums["streaming.scorings"] += 1
        tracer.sums["rules.passed"] += bool(result)
        tracer.sums["rules.evaluated"] += 1

    _wrap(RuleFilter, "evaluate", None, evaluated)
    _wrap(RuleFilter, "passes", None, passed)

    def margins(tracer, args, kwargs, result):
        tracer.sums["inference.margins_calls"] += 1
        tracer.sums["inference.rows"] += len(args[1])

    _wrap(PackedEnsemble, "margins", "inference.margins_ms", margins)

    def fitted(tracer, args, kwargs, result):
        tracer.sums["gbdt.fits"] += 1
        tracer.sums["gbdt.trees"] += len(args[0].trees_)

    _wrap(GradientBoostingClassifier, "fit", "gbdt.fit_ms", fitted)
    _wrap(model_selection, "cross_validate", "model_selection.cv_ms", None)
    _wrap(ModelRegistry, "register", "registry.register_ms", None)
    _wrap(ModelRegistry, "promote", "registry.promote_ms", None)
    _wrap(ModelRegistry, "load_champion", "registry.load_champion_ms", None)
    _wrap(DetectionRequestHandler, "do_POST", "httpd.handler_ms",
          _add(httpd__requests=1))

    def checkpointed(tracer, args, kwargs, result):
        tracer.sums["checkpoint.writes"] += 1
        tracer.sums["checkpoint.bytes"] += _dir_bytes(result)

    _wrap(CheckpointManager, "save", "checkpoint.save_ms", checkpointed)
    _wrap(DriftMonitor, "observe_matrix", "drift.observe_ms", None)
    return _TRACER


def collect(tracer: Tracer) -> dict[str, float]:
    """This process's table plus every worker table, with derived ratios.

    Returns the raw sums (derived ratios are computed by :func:`finish`
    once tables from other processes are merged in).
    """
    from repro.core.parallel_analysis import ENGINE_STATS
    from repro.ml import model_selection

    sums = defaultdict(float, tracer.sums)
    if tracer.worker_dir is not None:
        for path in sorted(tracer.worker_dir.glob("worker-*.json")):
            for name, value in json.loads(path.read_text()).items():
                sums[name] += value
    hits = lookups = segmented = 0
    for cats in tracer.systems:
        segmented += cats.analyzer.n_segmentations
        info = cats.feature_extractor.cache_info()
        if info is not None:
            hits += info.hits
            lookups += info.hits + info.misses
    sums["text.comments_segmented"] += segmented
    sums["features.cache_hits"] += hits
    sums["features.cache_lookups"] += lookups
    sums["parallel_analysis.fallbacks"] = ENGINE_STATS["serial_fallbacks"]
    sums["model_selection.thread_fallbacks"] = (
        model_selection.N_THREAD_FALLBACKS
    )
    return dict(sums)


def finish(sums: dict[str, float]) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from merged raw sums."""
    sums = defaultdict(float, sums)
    out = {name: float(sums[name]) for name in PER_LAYER}
    out["features.cache_hit_rate"] = (
        sums["features.cache_hits"] / sums["features.cache_lookups"]
        if sums["features.cache_lookups"]
        else 0.0
    )
    out["rules.pass_ratio"] = (
        sums["rules.passed"] / sums["rules.evaluated"]
        if sums["rules.evaluated"]
        else 0.0
    )
    out["inference.rows_per_call"] = (
        sums["inference.rows"] / sums["inference.margins_calls"]
        if sums["inference.margins_calls"]
        else 0.0
    )
    return out
