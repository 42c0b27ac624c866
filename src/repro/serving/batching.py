"""Micro-batching ingress queue with backpressure and load shedding.

The serving layer's throughput comes from coalescing: requests that
arrive within a small window are flushed as one batch, so the detector
pays one vectorized classifier call (and one scheduler wake-up) per
batch instead of per request.  :class:`MicroBatcher` owns that policy
and nothing else -- it never looks inside a request, so it is testable
without a trained model and reusable for any batch processor.

Flush policy
------------

A batch is flushed when either

* it reaches ``max_batch`` requests, or
* ``max_delay`` seconds passed since its *oldest* request was enqueued
  (default 0, natural batching: the scheduler takes whatever queued
  while it was busy, so a lone request never waits for company).

Backpressure
------------

The ingress queue is bounded by ``queue_depth``.  A submit against a
full queue fails *immediately* with :class:`QueueFullError` -- explicit
load shedding, so an overloaded service answers "come back later"
(HTTP 503 at the front end) instead of stacking unbounded memory or
latency.  Rejected requests are counted but never enqueued.

Shutdown
--------

``stop(drain=True)`` (the default) lets the scheduler flush everything
already accepted, then joins it; new submits fail with
:class:`BatcherStopped` the moment stop is requested.  ``drain=False``
abandons queued requests by failing their futures with
:class:`BatcherStopped`, so no caller is ever left waiting on a result
that cannot come.

``stop(timeout=...)`` returns ``False`` when the join timed out with
the scheduler still alive.  A non-clean stop leaves the thread handle
in place -- the single-writer invariant depends on never starting a
second scheduler while the first one is still draining, so ``start``
refuses to run again until the old scheduler has actually exited.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from collections.abc import Callable
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any

#: Per-batch latency samples kept for percentile stats.
_LATENCY_WINDOW = 4096

#: Default flush window in seconds: no hold (natural batching).
DEFAULT_MAX_DELAY = 0.0


class QueueFullError(RuntimeError):
    """The ingress queue is at capacity; the request was shed."""


class BatcherStopped(RuntimeError):
    """The batcher is stopped (or stopping) and accepts no work."""


@dataclass
class Request:
    """One queued unit of work plus its response future."""

    kind: str
    payload: Any
    future: Future = field(default_factory=Future)
    enqueued_at: float = field(default_factory=time.monotonic)


class MicroBatcher:
    """Bounded queue that coalesces requests into batches.

    Parameters
    ----------
    process_batch:
        Called on the scheduler thread with each non-empty batch (a
        list of :class:`Request`); it must resolve every request's
        future (result or exception).  An exception escaping the
        callback fails every unresolved future in the batch -- one
        poisoned batch cannot wedge its callers or kill the scheduler.
    max_batch:
        Flush when a batch reaches this many requests.
    max_delay:
        Flush when the oldest queued request has waited this long
        (seconds).
    queue_depth:
        Maximum queued (not yet flushed) requests; submits beyond it
        are rejected.
    """

    def __init__(
        self,
        process_batch: Callable[[list[Request]], None],
        max_batch: int = 32,
        max_delay: float = DEFAULT_MAX_DELAY,
        queue_depth: int = 256,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {max_delay}")
        if queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {queue_depth}"
            )
        self._process_batch = process_batch
        self.max_batch = max_batch
        self.max_delay = max_delay
        self.queue_depth = queue_depth

        self._queue: deque[Request] = deque()
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._stopping = False
        self._thread: threading.Thread | None = None

        # Counters (guarded by the lock; latencies appended on the
        # scheduler thread only).
        self.n_submitted = 0
        self.n_rejected = 0
        self.n_processed = 0
        self.n_batches = 0
        self.queue_high_water = 0
        self._batch_latencies: deque[float] = deque(maxlen=_LATENCY_WINDOW)
        self._batch_sizes: deque[int] = deque(maxlen=_LATENCY_WINDOW)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Start the scheduler thread (idempotent while one is running).

        Raises :class:`RuntimeError` after a timed-out :meth:`stop`
        whose scheduler is still draining -- starting a second
        scheduler there would put two writers on the same processor.
        """
        with self._lock:
            if self._thread is not None:
                if self._thread.is_alive():
                    if self._stopping:
                        raise RuntimeError(
                            "previous scheduler is still draining after a "
                            "timed-out stop(); wait for it to exit before "
                            "restarting"
                        )
                    return
                # A previously timed-out stop whose scheduler has since
                # finished: clear the stale handle and start fresh.
                self._thread = None
            self._stopping = False
            self._thread = threading.Thread(
                target=self._run, name="micro-batcher", daemon=True
            )
            self._thread.start()

    def stop(self, drain: bool = True, timeout: float | None = None) -> bool:
        """Stop accepting work and shut the scheduler down.

        With ``drain`` the scheduler first flushes every accepted
        request; without it, queued requests fail with
        :class:`BatcherStopped` immediately.

        Returns ``True`` for a clean stop (scheduler exited).  With a
        ``timeout``, returns ``False`` when the scheduler is still
        alive after the join -- the stop is *not* clean, and the
        batcher refuses to :meth:`start` again until the scheduler
        actually exits.
        """
        with self._lock:
            thread = self._thread
            self._stopping = True
            if not drain:
                abandoned = list(self._queue)
                self._queue.clear()
            else:
                abandoned = []
            self._work_ready.notify_all()
        for request in abandoned:
            request.future.set_exception(
                BatcherStopped("batcher stopped before processing")
            )
        if thread is not None:
            thread.join(timeout=timeout)
            if thread.is_alive():
                return False
            with self._lock:
                if self._thread is thread:
                    self._thread = None
        return True

    @property
    def running(self) -> bool:
        """True while the scheduler thread accepts and processes work."""
        with self._lock:
            return (
                self._thread is not None
                and self._thread.is_alive()
                and not self._stopping
            )

    # -- submission ----------------------------------------------------------

    def submit(self, kind: str, payload: Any) -> Future:
        """Enqueue one request; returns its response future.

        Raises :class:`QueueFullError` when the queue is at capacity
        and :class:`BatcherStopped` when the batcher is not accepting
        work.
        """
        request = Request(kind=kind, payload=payload)
        with self._lock:
            if self._stopping or self._thread is None:
                raise BatcherStopped("batcher is not running")
            if len(self._queue) >= self.queue_depth:
                self.n_rejected += 1
                raise QueueFullError(
                    f"ingress queue full ({self.queue_depth} requests)"
                )
            self._queue.append(request)
            self.n_submitted += 1
            self.queue_high_water = max(
                self.queue_high_water, len(self._queue)
            )
            self._work_ready.notify()
        return request.future

    # -- scheduler -----------------------------------------------------------

    def _take_batch(self) -> list[Request]:
        """Block until a batch is due; empty means shut down."""
        with self._lock:
            while not self._queue:
                if self._stopping:
                    return []
                self._work_ready.wait()
            deadline = self._queue[0].enqueued_at + self.max_delay
            while len(self._queue) < self.max_batch and not self._stopping:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._work_ready.wait(timeout=remaining)
                if not self._queue:
                    # drain=False stop cleared the queue under us.
                    return []
            size = min(self.max_batch, len(self._queue))
            return [self._queue.popleft() for _ in range(size)]

    def _run(self) -> None:
        while True:
            batch = self._take_batch()
            if not batch:
                return
            started = time.monotonic()
            try:
                self._process_batch(batch)
            except BaseException as exc:  # noqa: BLE001 - must not die
                for request in batch:
                    if not request.future.done():
                        request.future.set_exception(exc)
            finished = time.monotonic()
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(
                        RuntimeError(
                            "batch processor resolved no result for "
                            f"{request.kind!r} request"
                        )
                    )
            with self._lock:
                self.n_batches += 1
                self.n_processed += len(batch)
                self._batch_latencies.append(
                    finished - batch[0].enqueued_at
                )
                self._batch_sizes.append(len(batch))

    # -- stats ---------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Counters plus batch-latency percentiles (milliseconds).

        Percentiles use the nearest-rank definition (ceil(q*n)-th
        smallest sample), so ``p99`` over a small window reports a
        sample at or above the requested quantile instead of flooring
        down to ~p96.
        """
        with self._lock:
            latencies = sorted(self._batch_latencies)
            sizes = list(self._batch_sizes)
            snapshot = {
                "queue_depth": len(self._queue),
                "queue_capacity": self.queue_depth,
                "queue_high_water": self.queue_high_water,
                "submitted": self.n_submitted,
                "rejected": self.n_rejected,
                "processed": self.n_processed,
                "batches": self.n_batches,
            }
        if latencies:
            def pct(q: float) -> float:
                rank = math.ceil(q * len(latencies))
                index = min(len(latencies) - 1, max(0, rank - 1))
                return latencies[index] * 1000.0

            snapshot["batch_latency_p50_ms"] = round(pct(0.50), 3)
            snapshot["batch_latency_p99_ms"] = round(pct(0.99), 3)
            snapshot["mean_batch_size"] = round(
                sum(sizes) / len(sizes), 2
            )
        return snapshot
