"""Columnar-store wiring through streaming, serving and checkpoints.

The store is an *observer* of the analysis path: everything the
streaming detector analyzes must land in the arena, checkpoints must
stamp (and restores must validate) the store generation, and the
``/stats`` surface must expose the store's counters.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.columnar import ColumnarCommentStore
from repro.core.streaming import StreamingDetector
from repro.serving import DetectionService
from tests.oracles.features import streamed_vector


@pytest.fixture()
def store(trained_cats):
    return ColumnarCommentStore(trained_cats.analyzer.interner)


class TestStreamingAppends:
    def test_observed_comments_land_in_the_store(
        self, trained_cats, feed, store
    ):
        stream = StreamingDetector(
            trained_cats, rescore_growth=1.0, columnar_store=store
        )
        stream.observe_many(feed[:120])
        # Scoring triggers accumulation; anything the detector has
        # folded must be in the arena (never fewer, never analyzed
        # twice).
        item_ids = sorted({r.item_id for r in feed[:120]})
        stream.force_rescore_many(item_ids)
        stored = dict(
            zip(*np.unique(store.column("item_id"), return_counts=True))
        )
        for item_id in item_ids:
            state = stream._items[item_id]
            assert stored.get(item_id, 0) == state.n_accumulated
        assert store.n_appended_rows == store.n_comments

    def test_store_matrix_matches_detector_features(
        self, trained_cats, feed, store
    ):
        stream = StreamingDetector(
            trained_cats, rescore_growth=1.0, columnar_store=store
        )
        stream.observe_many(feed[:200])
        item_ids = sorted({r.item_id for r in feed[:200]})
        stream.force_rescore_many(item_ids)
        expected = np.vstack(
            [streamed_vector(stream, item_id) for item_id in item_ids]
        )
        assert np.array_equal(store.feature_matrix(item_ids), expected)


class TestCheckpointStamp:
    def make_service(self, trained_cats, tmp_path, store=None, **kwargs):
        return DetectionService(
            trained_cats,
            rescore_growth=1.0,
            checkpoint_dir=str(tmp_path / "ckpts"),
            checkpoint_every=1,
            columnar_store=store,
            **kwargs,
        )

    def run_feed(self, service, feed):
        service.start()
        try:
            service.feed(feed)
            service.score(sorted({r.item_id for r in feed}))
        finally:
            service.stop()

    def test_checkpoint_stamped_and_store_saved(
        self, trained_cats, feed, tmp_path, store
    ):
        store.directory = tmp_path / "columnar"
        service = self.make_service(trained_cats, tmp_path, store)
        self.run_feed(service, feed[:80])
        state, _ = service.checkpoints.load_latest()
        stamp = state["columnar"]
        assert stamp["generation"] == store.generation >= 1
        assert stamp["n_comments"] == store.n_comments > 0
        # The stamped generation exists on disk (store saved *before*
        # the checkpoint referenced it).
        manifest = ColumnarCommentStore.read_manifest(store.directory)
        assert manifest["generation"] >= stamp["generation"]
        assert manifest["n_comments"] >= stamp["n_comments"]

    def test_restore_accepts_covering_store(
        self, trained_cats, feed, tmp_path, store
    ):
        store.directory = tmp_path / "columnar"
        service = self.make_service(trained_cats, tmp_path, store)
        self.run_feed(service, feed[:80])
        reopened = ColumnarCommentStore.attach(
            store.directory, trained_cats.analyzer
        )
        restored = self.make_service(trained_cats, tmp_path, reopened)
        assert restored.restored_from is not None

    def test_restore_rejects_store_behind_checkpoint(
        self, trained_cats, feed, tmp_path, store
    ):
        store.directory = tmp_path / "columnar"
        service = self.make_service(trained_cats, tmp_path, store)
        self.run_feed(service, feed[:80])
        empty = ColumnarCommentStore(trained_cats.analyzer.interner)
        with pytest.raises(ValueError, match="missing analyzed history"):
            self.make_service(trained_cats, tmp_path, empty)

    def test_unstamped_checkpoint_and_storeless_restore_pass(
        self, trained_cats, feed, tmp_path
    ):
        # No store: checkpoints carry no stamp and restore fine ...
        service = self.make_service(trained_cats, tmp_path)
        self.run_feed(service, feed[:40])
        state, _ = service.checkpoints.load_latest()
        assert "columnar" not in state
        restored = self.make_service(trained_cats, tmp_path)
        assert restored.restored_from is not None


class TestStatsSurface:
    def test_stats_expose_columnar_counters(
        self, trained_cats, feed, store
    ):
        service = DetectionService(
            trained_cats, rescore_growth=1.0, columnar_store=store
        ).start()
        try:
            service.feed(feed[:60])
            service.score(sorted({r.item_id for r in feed[:60]}))
            stats = service.stats()
        finally:
            service.stop()
        assert stats["columnar_mode"] == "memory"
        assert stats["columnar_comments"] == store.n_comments > 0
        assert stats["columnar_appended_rows"] == store.n_appended_rows
        assert stats["columnar_generation"] == 0  # never saved
        assert "columnar_arena_bytes" in stats

    def test_no_store_no_columnar_keys(self, trained_cats, feed):
        service = DetectionService(
            trained_cats, rescore_growth=1.0
        ).start()
        try:
            service.feed(feed[:20])
            stats = service.stats()
        finally:
            service.stop()
        assert not any(key.startswith("columnar_") for key in stats)
