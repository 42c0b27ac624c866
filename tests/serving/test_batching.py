"""Tests for repro.serving.batching (no trained model needed)."""

from __future__ import annotations

import threading
import time

import pytest

from repro.serving.batching import (
    BatcherStopped,
    MicroBatcher,
    QueueFullError,
)


def echo_processor(log):
    """A processor that records batch sizes and echoes payloads."""

    def process(batch):
        log.append([request.payload for request in batch])
        for request in batch:
            request.future.set_result(request.payload)

    return process


@pytest.fixture()
def batcher_log():
    return []


def make_batcher(log, **kwargs):
    defaults = dict(max_batch=4, max_delay=0.01, queue_depth=64)
    defaults.update(kwargs)
    batcher = MicroBatcher(echo_processor(log), **defaults)
    batcher.start()
    return batcher


class TestValidation:
    def test_bad_max_batch(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda b: None, max_batch=0)

    def test_bad_max_delay(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda b: None, max_delay=-1)

    def test_bad_queue_depth(self):
        with pytest.raises(ValueError):
            MicroBatcher(lambda b: None, queue_depth=0)

    def test_submit_before_start(self, batcher_log):
        batcher = MicroBatcher(echo_processor(batcher_log))
        with pytest.raises(BatcherStopped):
            batcher.submit("x", 1)


class TestCoalescing:
    def test_all_requests_answered_in_batches(self, batcher_log):
        batcher = make_batcher(batcher_log)
        futures = [batcher.submit("x", i) for i in range(10)]
        results = [future.result(timeout=5) for future in futures]
        batcher.stop()
        assert results == list(range(10))
        assert sum(len(sizes) for sizes in batcher_log) == 10
        assert max(len(sizes) for sizes in batcher_log) <= 4

    def test_deadline_flushes_partial_batch(self, batcher_log):
        batcher = make_batcher(batcher_log, max_batch=100, max_delay=0.02)
        future = batcher.submit("x", 7)
        assert future.result(timeout=5) == 7
        batcher.stop()
        assert batcher_log == [[7]]

    def test_max_batch_one_never_coalesces(self, batcher_log):
        batcher = make_batcher(batcher_log, max_batch=1, max_delay=0)
        futures = [batcher.submit("x", i) for i in range(5)]
        for future in futures:
            future.result(timeout=5)
        batcher.stop()
        assert all(len(batch) == 1 for batch in batcher_log)


class TestBackpressure:
    def test_queue_full_rejects_immediately(self):
        entered = threading.Event()
        release = threading.Event()

        def blocking(batch):
            entered.set()
            release.wait(5)
            for request in batch:
                request.future.set_result(None)

        batcher = MicroBatcher(
            blocking, max_batch=1, max_delay=0, queue_depth=2
        )
        batcher.start()
        futures = [batcher.submit("x", 0)]
        # Wait until the scheduler has taken the first request and is
        # blocked in the processor; only then does filling the queue
        # behind it leave no pop that could free a slot.
        assert entered.wait(5)
        deadline = time.monotonic() + 5
        while batcher.stats()["queue_depth"] < 2:
            futures.append(batcher.submit("x", len(futures)))
            assert time.monotonic() < deadline
        with pytest.raises(QueueFullError):
            batcher.submit("x", 99)
        assert batcher.stats()["rejected"] == 1
        release.set()
        for future in futures:
            future.result(timeout=5)
        batcher.stop()


class TestShutdown:
    def test_drain_processes_everything(self, batcher_log):
        batcher = make_batcher(batcher_log, max_batch=2, max_delay=1.0)
        futures = [batcher.submit("x", i) for i in range(9)]
        batcher.stop(drain=True)
        assert [future.result(timeout=1) for future in futures] == list(
            range(9)
        )
        assert batcher.stats()["processed"] == 9

    def test_abandon_fails_pending_futures(self):
        started = threading.Event()
        release = threading.Event()

        def blocking(batch):
            started.set()
            release.wait(5)
            for request in batch:
                request.future.set_result(None)

        batcher = MicroBatcher(
            blocking, max_batch=1, max_delay=0, queue_depth=64
        )
        batcher.start()
        first = batcher.submit("x", 0)
        assert started.wait(5)
        pending = [batcher.submit("x", i) for i in range(1, 6)]
        # Stop while the scheduler is still blocked on the first batch:
        # the queued requests must fail before it ever sees them.
        batcher.stop(drain=False, timeout=0.2)
        for future in pending:
            with pytest.raises(BatcherStopped):
                future.result(timeout=1)
        release.set()
        assert first.result(timeout=5) is None

    def test_submit_after_stop_raises(self, batcher_log):
        batcher = make_batcher(batcher_log)
        batcher.stop()
        with pytest.raises(BatcherStopped):
            batcher.submit("x", 1)

    def test_clean_stop_returns_true(self, batcher_log):
        batcher = make_batcher(batcher_log)
        assert batcher.stop() is True
        assert batcher.running is False

    def test_timed_out_stop_is_not_clean_and_blocks_restart(self):
        """A stop() whose join times out must not pretend it stopped.

        Regression: stop() used to clear the thread handle even when
        the scheduler was still draining, so ``running`` lied and a
        second start() could put two scheduler threads on the same
        processor (breaking the single-writer invariant).
        """
        started = threading.Event()
        release = threading.Event()

        def blocking(batch):
            started.set()
            release.wait(10)
            for request in batch:
                request.future.set_result(None)

        batcher = MicroBatcher(blocking, max_batch=1, max_delay=0)
        batcher.start()
        future = batcher.submit("x", 0)
        assert started.wait(5)
        # The scheduler is wedged inside the processor: the join times
        # out, the stop is not clean, and the thread handle survives.
        assert batcher.stop(drain=False, timeout=0.1) is False
        assert batcher._thread is not None
        assert batcher._thread.is_alive()
        with pytest.raises(RuntimeError, match="still draining"):
            batcher.start()
        # Once the old scheduler actually exits, start() works again.
        release.set()
        assert future.result(timeout=5) is None
        batcher._thread.join(timeout=5)
        batcher.start()
        assert batcher.running
        second = batcher.submit("x", 1)
        assert second.result(timeout=5) is None
        assert batcher.stop() is True


class TestFailureIsolation:
    def test_processor_exception_fails_batch_not_scheduler(self):
        calls = []

        def flaky(batch):
            calls.append(len(batch))
            if len(calls) == 1:
                raise RuntimeError("boom")
            for request in batch:
                request.future.set_result("ok")

        batcher = MicroBatcher(flaky, max_batch=1, max_delay=0)
        batcher.start()
        first = batcher.submit("x", 1)
        with pytest.raises(RuntimeError, match="boom"):
            first.result(timeout=5)
        second = batcher.submit("x", 2)
        assert second.result(timeout=5) == "ok"
        batcher.stop()

    def test_unresolved_future_is_failed(self):
        def forgetful(batch):
            pass  # resolves nothing

        batcher = MicroBatcher(forgetful, max_batch=1, max_delay=0)
        batcher.start()
        future = batcher.submit("x", 1)
        with pytest.raises(RuntimeError, match="resolved no result"):
            future.result(timeout=5)
        batcher.stop()


class TestStats:
    def test_latency_percentiles_reported(self, batcher_log):
        batcher = make_batcher(batcher_log, max_batch=2, max_delay=0.001)
        futures = [batcher.submit("x", i) for i in range(20)]
        for future in futures:
            future.result(timeout=5)
        batcher.stop()
        stats = batcher.stats()
        assert stats["submitted"] == 20
        assert stats["processed"] == 20
        assert stats["batch_latency_p50_ms"] >= 0
        assert (
            stats["batch_latency_p99_ms"] >= stats["batch_latency_p50_ms"]
        )

    def test_percentiles_use_nearest_rank(self):
        """Regression: p99 used to floor to int(q*(n-1)), reporting
        ~p96 on small windows (25 samples 1..25 ms gave 24 ms)."""
        batcher = MicroBatcher(lambda batch: None)
        for ms in range(1, 26):
            batcher._batch_latencies.append(ms / 1000.0)
            batcher._batch_sizes.append(1)
        stats = batcher.stats()
        assert stats["batch_latency_p99_ms"] == 25.0
        assert stats["batch_latency_p50_ms"] == 13.0
