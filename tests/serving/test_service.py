"""Tests for repro.serving.service (DetectionService)."""

from __future__ import annotations

import dataclasses
import threading

import pytest

from repro.core.streaming import StreamingDetector
from repro.serving import DetectionService, QueueFullError


@pytest.fixture()
def service(trained_cats):
    svc = DetectionService(
        trained_cats, rescore_growth=1.0, max_batch=16, max_delay_ms=2
    ).start()
    yield svc
    svc.stop()


class TestBasics:
    def test_ingest_acknowledges_and_dedupes(self, service, feed):
        first = service.feed(feed[:50])
        assert first.accepted == 50
        assert first.duplicates == 0
        replay = service.feed(feed[:50])
        assert replay.accepted == 0
        assert replay.duplicates == 50

    def test_score_matches_plain_streaming_detector(
        self, trained_cats, service, feed, feed_item_ids
    ):
        service.feed(feed)
        reference = StreamingDetector(trained_cats, rescore_growth=1.0)
        reference.observe_many(feed)
        expected = reference.force_rescore_many(feed_item_ids)
        assert service.score(feed_item_ids) == expected
        assert service.alerts() == reference.alerts

    def test_score_unknown_item_fails_only_that_request(self, service, feed):
        service.feed(feed[:50])
        known = feed[0].item_id
        bad = service.submit_score([known, 404404])
        good = service.submit_score([known])
        with pytest.raises(KeyError):
            bad.result(timeout=10)
        assert known in good.result(timeout=10)

    def test_sales_updates_apply(self, service, feed):
        service.feed(feed[:5])
        item_id = feed[0].item_id
        service.submit_feed([], [(item_id, 5000)]).result(timeout=10)
        assert service.stream._items[item_id].sales_volume == 5000

    def test_healthz_and_stats(self, service, feed):
        service.feed(feed[:30])
        health = service.healthz()
        assert health["status"] == "ok"
        assert health["uptime_s"] >= 0
        stats = service.stats()
        assert stats["records_observed"] == 30
        assert stats["processed"] >= 1
        assert stats["items_tracked"] >= 1

    def test_packed_predictor_engaged(self, service, feed, feed_item_ids):
        """Smoke test that serving scores run through the packed
        inference arena, not a per-tree fallback (counters in /stats)."""
        service.feed(feed)
        service.score(feed_item_ids[:5])
        stats = service.stats()
        assert stats["packed_predict_calls"] >= 1
        assert stats["packed_rows_scored"] >= 5

    def test_stopped_service_reports_and_rejects(self, trained_cats):
        svc = DetectionService(trained_cats).start()
        svc.stop()
        assert svc.healthz()["status"] == "stopped"
        with pytest.raises(Exception):
            svc.feed([])


class TestBackpressure:
    def test_overload_sheds_with_queue_full(self, trained_cats, feed):
        svc = DetectionService(
            trained_cats,
            rescore_growth=1.0,
            max_batch=1,
            max_delay_ms=0,
            queue_depth=2,
        ).start()
        rejected = 0
        futures = []
        for record in feed[:200]:
            try:
                futures.append(svc.submit_feed([record]))
            except QueueFullError:
                rejected += 1
        svc.stop(drain=True)
        assert rejected > 0
        assert all(future.done() for future in futures)
        accepted = sum(f.result().accepted for f in futures)
        assert accepted == len(futures)
        assert svc.stats()["rejected"] == rejected


class TestThreadedSmoke:
    def test_no_lost_or_duplicated_responses(
        self, trained_cats, feed, feed_item_ids
    ):
        """Hammer the service from N threads; every request must get
        exactly one response and every record must land exactly once."""
        svc = DetectionService(
            trained_cats,
            rescore_growth=1.0,
            max_batch=8,
            max_delay_ms=1,
            queue_depth=4096,
        ).start()
        n_threads = 8
        shards = [feed[i::n_threads] for i in range(n_threads)]
        results = [[] for _ in range(n_threads)]
        errors: list[BaseException] = []

        def client(index: int) -> None:
            try:
                for record in shards[index]:
                    ack = svc.feed([record], timeout=30)
                    results[index].append(ack)
                    svc.score([record.item_id], timeout=30)
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [
            threading.Thread(target=client, args=(i,))
            for i in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        acks = [ack for shard in results for ack in shard]
        assert len(acks) == len(feed)
        assert sum(a.accepted for a in acks) == len(feed)
        assert sum(a.duplicates for a in acks) == 0
        stats = svc.stats()
        assert stats["records_observed"] == len(feed)
        assert stats["submitted"] == stats["processed"] == 2 * len(feed)
        # The same stream state as any single-threaded order: per-item
        # buffers are order-independent sets of unique records.
        for item_id in feed_item_ids:
            expected = [r for r in feed if r.item_id == item_id]
            assert len(svc.stream._items[item_id].comments) == len(expected)
        svc.stop()


class TestCheckpointing:
    def test_periodic_and_final_checkpoints(
        self, trained_cats, feed, tmp_path
    ):
        svc = DetectionService(
            trained_cats,
            rescore_growth=1.0,
            max_batch=16,
            max_delay_ms=1,
            checkpoint_dir=str(tmp_path / "ckpts"),
            checkpoint_every=50,
        ).start()
        for start in range(0, 200, 20):
            svc.feed(feed[start : start + 20])
        assert svc.n_checkpoints_written >= 3
        svc.stop()
        final = svc.n_checkpoints_written
        assert final >= 4  # stop() writes the tail

    def test_restart_resumes_identically(
        self, trained_cats, feed, feed_item_ids, tmp_path
    ):
        ckpt_dir = str(tmp_path / "ckpts")
        first = DetectionService(
            trained_cats,
            rescore_growth=1.0,
            checkpoint_dir=ckpt_dir,
            checkpoint_every=40,
            max_delay_ms=1,
        ).start()
        first.feed(feed)
        expected = first.score(feed_item_ids)
        first.stop()

        second = DetectionService(
            trained_cats, checkpoint_dir=ckpt_dir
        ).start()
        assert second.restored_from is not None
        assert second.stream.n_observed == len(feed)
        assert second.score(feed_item_ids) == expected
        assert second.alerts() == first.alerts()
        second.stop()

    def test_idle_stop_does_not_rotate_out_real_generations(
        self, trained_cats, feed, tmp_path
    ):
        """Regression: stop() used to force-write a checkpoint even
        when nothing changed, so every restart-then-stop cycle rotated
        a byte-duplicate generation in and (with keep=3) a real older
        generation out of the fallback window."""
        ckpt_dir = tmp_path / "ckpts"

        def generations() -> list[str]:
            return sorted(p.name for p in ckpt_dir.iterdir())

        first = DetectionService(
            trained_cats,
            rescore_growth=1.0,
            checkpoint_dir=str(ckpt_dir),
            checkpoint_every=40,
            max_delay_ms=1,
        ).start()
        first.feed(feed[:100])
        first.stop()
        after_traffic = generations()
        assert after_traffic  # at least the final checkpoint landed

        # Three idle restart/stop cycles: no progress, no new writes.
        for _ in range(3):
            idle = DetectionService(
                trained_cats, checkpoint_dir=str(ckpt_dir)
            ).start()
            assert idle.restored_from is not None
            assert idle.stop() is True
            assert idle.n_checkpoints_written == 0
        assert generations() == after_traffic

        # Real progress still gets its final checkpoint on stop.
        active = DetectionService(
            trained_cats,
            rescore_growth=1.0,
            checkpoint_dir=str(ckpt_dir),
            checkpoint_every=10_000,
            max_delay_ms=1,
        ).start()
        active.feed(feed[100:120])
        active.stop()
        assert active.n_checkpoints_written == 1
        assert generations() != after_traffic

    def test_sales_only_session_checkpoints_on_stop(
        self, trained_cats, feed, tmp_path
    ):
        """Sales updates move durable state without moving n_observed;
        the final checkpoint must still cover them."""
        ckpt_dir = str(tmp_path / "ckpts")
        first = DetectionService(
            trained_cats,
            rescore_growth=1.0,
            checkpoint_dir=ckpt_dir,
            max_delay_ms=1,
        ).start()
        first.feed(feed[:10])
        first.stop()

        item_id = feed[0].item_id
        second = DetectionService(
            trained_cats, checkpoint_dir=ckpt_dir, max_delay_ms=1
        ).start()
        second.submit_feed([], [(item_id, 31337)]).result(timeout=10)
        second.stop()
        assert second.n_checkpoints_written == 1

        third = DetectionService(trained_cats, checkpoint_dir=ckpt_dir)
        assert third.stream._items[item_id].sales_volume == 31337

    def test_unencodable_text_fails_checkpoints_not_stop(
        self, trained_cats, feed, tmp_path
    ):
        """A record whose text cannot be written as UTF-8 (a lone
        surrogate; records built in-process skip ``from_row``'s check)
        fails every checkpoint that holds it: each failure is counted,
        scoring goes on, and stop() still returns."""
        svc = DetectionService(
            trained_cats,
            rescore_growth=1.0,
            checkpoint_dir=str(tmp_path / "ckpts"),
            checkpoint_every=10,
            max_delay_ms=1,
        ).start()
        bad = dataclasses.replace(
            feed[0], comment_id=-1, content=feed[0].content + "\ud83d"
        )
        assert svc.feed([bad] + feed[:40]).accepted == 41
        # A batch checkpoints after resolving its futures; the next
        # request returns only once that attempt is over.
        svc.feed([])
        stats = svc.stats()
        assert stats["checkpoint_failures"] >= 1
        assert "surrogates" in stats["last_checkpoint_error"]
        assert svc.score([feed[0].item_id])
        failures = svc.n_checkpoint_failures
        assert svc.stop() is True
        assert svc.n_checkpoints_written == 0
        # stop()'s final attempt fails too, and is counted.
        assert svc.n_checkpoint_failures > failures

    def test_checkpoint_failure_does_not_break_scoring(
        self, trained_cats, feed, tmp_path, monkeypatch
    ):
        svc = DetectionService(
            trained_cats,
            rescore_growth=1.0,
            checkpoint_dir=str(tmp_path / "ckpts"),
            checkpoint_every=10,
            max_delay_ms=1,
        ).start()

        def boom(state):
            raise OSError("disk on fire")

        monkeypatch.setattr(svc.checkpoints, "save", boom)
        ack = svc.feed(feed[:40])
        assert ack.accepted == 40
        # A batch checkpoints after resolving its futures; the next
        # request returns only once that attempt is over.
        svc.feed([])
        stats = svc.stats()
        assert stats["checkpoint_failures"] >= 1
        assert "disk on fire" in stats["last_checkpoint_error"]
        svc._batcher.stop()  # skip stop()'s final checkpoint (also boom)
