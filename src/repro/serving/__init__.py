"""Serving layer: a micro-batching detection service with durable state.

This package turns a trained :class:`~repro.core.system.CATS` plus the
incremental :class:`~repro.core.streaming.StreamingDetector` into a
long-running scoring service (the paper's Section VI deployment regime):

* :mod:`repro.serving.batching` -- bounded ingress queue that coalesces
  requests into micro-batches, with explicit load shedding and a
  drain/graceful-shutdown protocol;
* :mod:`repro.serving.service` -- the in-process
  :class:`DetectionService` façade (single scheduler thread owns all
  detector state; score requests across a batch share one vectorized
  classifier call);
* :mod:`repro.serving.checkpoint` -- durable streaming-state
  checkpoints (one JSON file, atomic publish), so a killed service
  restarts bit-identical from its last checkpoint;
* :mod:`repro.serving.httpd` -- a stdlib-only HTTP front end with
  ``/score``, ``/ingest``, ``/alerts``, ``/healthz`` and ``/stats``
  endpoints, wired into the CLI as ``cats serve``;
* :mod:`repro.serving.telemetry` -- counter/gauge registry whose
  snapshots merge across processes (the cluster's observability
  substrate);
* :mod:`repro.serving.cluster` -- shared-nothing multi-process
  sharding: per-shard worker subprocesses, a routing front end, and
  per-shard checkpoint lineages (``cats serve --shards N``).
"""

from repro.serving.batching import (
    BatcherStopped,
    MicroBatcher,
    QueueFullError,
)
from repro.serving.checkpoint import CheckpointError, CheckpointManager
from repro.serving.cluster import (
    ShardCluster,
    ShardUnavailableError,
    ShardWorker,
)
from repro.serving.httpd import DetectionHTTPServer, make_server
from repro.serving.service import DetectionService, IngestResult
from repro.serving.telemetry import TelemetryRegistry

__all__ = [
    "BatcherStopped",
    "CheckpointError",
    "CheckpointManager",
    "DetectionHTTPServer",
    "DetectionService",
    "IngestResult",
    "MicroBatcher",
    "QueueFullError",
    "ShardCluster",
    "ShardUnavailableError",
    "ShardWorker",
    "TelemetryRegistry",
    "make_server",
]
