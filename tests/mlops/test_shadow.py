"""Tests for repro.mlops.shadow (disagreement log + shadow scorer)."""

from __future__ import annotations

import json

import pytest

from repro.core.streaming import StreamingDetector
from repro.mlops.shadow import (
    DELTA_LABELS,
    DisagreementLog,
    ShadowScorer,
    delta_bucket,
)
from repro.serving import DetectionService


class TestDeltaBucket:
    def test_edges(self):
        assert delta_bucket(0.0) == "le_0.01"
        assert delta_bucket(0.01) == "le_0.01"
        assert delta_bucket(0.02) == "le_0.05"
        assert delta_bucket(0.5) == "le_0.5"
        assert delta_bucket(0.51) == "gt_0.5"
        assert delta_bucket(1.0) == "gt_0.5"

    def test_labels_cover_all_inputs(self):
        for i in range(101):
            assert delta_bucket(i / 100) in DELTA_LABELS


class TestDisagreementLog:
    def test_append_and_read_back(self, tmp_path):
        log = DisagreementLog(tmp_path / "log.jsonl", max_entries=10)
        log.append({"item_id": 1})
        log.append({"item_id": 2})
        log.close()
        assert [e["item_id"] for e in log.entries()] == [1, 2]

    def test_rotation_bounds_disk(self, tmp_path):
        log = DisagreementLog(tmp_path / "log.jsonl", max_entries=5)
        for i in range(23):
            log.append({"i": i})
        log.close()
        assert log.n_written == 23
        assert log.n_rotations == 4
        # Only the active file and one rotation survive.
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["log.jsonl", "log.jsonl.1"]
        active = (tmp_path / "log.jsonl").read_text().strip().splitlines()
        rotated = (tmp_path / "log.jsonl.1").read_text().strip().splitlines()
        assert len(active) <= 5 and len(rotated) <= 5
        # Newest entries are retained.
        assert json.loads(active[-1])["i"] == 22

    def test_resume_respects_bound(self, tmp_path):
        path = tmp_path / "log.jsonl"
        first = DisagreementLog(path, max_entries=4)
        for i in range(3):
            first.append({"i": i})
        first.close()
        resumed = DisagreementLog(path, max_entries=4)
        resumed.append({"i": 3})
        resumed.append({"i": 4})  # must rotate, not grow past 4
        resumed.close()
        assert len(path.read_text().strip().splitlines()) == 1

    def test_bad_bound_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            DisagreementLog(tmp_path / "x.jsonl", max_entries=0)


def _champion_results(cats, feed, item_ids):
    stream = StreamingDetector(cats, rescore_growth=1.0)
    stream.observe_many(feed)
    return stream.force_rescore_many(item_ids)


class TestShadowScorer:
    def test_identical_challenger_never_disagrees(
        self, trained_cats, feed, feed_item_ids
    ):
        shadow = ShadowScorer(trained_cats, trained_cats, rescore_growth=1.0)
        shadow.observe_feed(feed)
        shadow.compare(_champion_results(trained_cats, feed, feed_item_ids))
        stats = shadow.stats()
        assert stats["scored"] == len(feed_item_ids)
        assert stats["flipped_verdicts"] == 0
        assert stats["max_abs_delta"] == 0.0
        assert stats["delta_histogram"]["le_0.01"] == len(feed_item_ids)

    def test_shared_analyzer_detected(self, trained_cats, challenger_cats):
        shadow = ShadowScorer(trained_cats, challenger_cats)
        assert shadow.analysis_shared  # same analyzer object
        assert (
            challenger_cats.feature_extractor
            is trained_cats.feature_extractor
        )

    def test_counters_consistent(
        self, trained_cats, challenger_cats, feed, feed_item_ids
    ):
        shadow = ShadowScorer(
            trained_cats, challenger_cats, rescore_growth=1.0
        )
        shadow.observe_feed(feed)
        shadow.compare(_champion_results(trained_cats, feed, feed_item_ids))
        stats = shadow.stats()
        assert stats["scored"] == len(feed_item_ids)
        assert sum(stats["delta_histogram"].values()) == stats["scored"]
        assert 0.0 <= stats["mean_abs_delta"] <= stats["max_abs_delta"] <= 1.0
        assert stats["untracked_skips"] == 0

    def test_untracked_items_skipped(self, trained_cats, feed):
        shadow = ShadowScorer(trained_cats, trained_cats, rescore_growth=1.0)
        # The shadow never saw any traffic: nothing is tracked.
        shadow.compare({feed[0].item_id: 0.5, 999999: 0.1})
        stats = shadow.stats()
        assert stats["scored"] == 0
        assert stats["untracked_skips"] == 2

    def test_disagreement_log_written(
        self, trained_cats, challenger_cats, feed, feed_item_ids, tmp_path
    ):
        shadow = ShadowScorer(
            trained_cats,
            challenger_cats,
            log_path=tmp_path / "disagreements.jsonl",
            log_delta=0.0,  # log every comparison
            rescore_growth=1.0,
        )
        shadow.observe_feed(feed)
        shadow.compare(_champion_results(trained_cats, feed, feed_item_ids))
        shadow.close()
        entries = shadow.log.entries()
        assert len(entries) == len(feed_item_ids)
        assert {"item_id", "champion", "challenger", "delta", "flipped"} <= (
            set(entries[0])
        )

    def test_info_surfaced_in_stats(self, trained_cats):
        shadow = ShadowScorer(
            trained_cats, trained_cats, info={"version": 7}
        )
        assert shadow.stats()["model"] == {"version": 7}


class TestServiceIntegration:
    def test_shadow_never_changes_champion_outputs(
        self, trained_cats, challenger_cats, feed, feed_item_ids
    ):
        plain = DetectionService(
            trained_cats, rescore_growth=1.0, max_delay_ms=2
        ).start()
        try:
            plain.feed(feed)
            expected_scores = plain.score(feed_item_ids)
            expected_alerts = plain.alerts()
        finally:
            plain.stop()

        shadow = ShadowScorer(
            trained_cats, challenger_cats, rescore_growth=1.0
        )
        shadowed = DetectionService(
            trained_cats, rescore_growth=1.0, max_delay_ms=2, shadow=shadow
        ).start()
        try:
            shadowed.feed(feed)
            assert shadowed.score(feed_item_ids) == expected_scores
            assert shadowed.alerts() == expected_alerts
        finally:
            shadowed.stop()
        # Shadow counters are read after the drain: compare() runs on
        # the scheduler thread after the champion's future resolves, so
        # it must never be on the champion's response path.
        stats = shadowed.stats()
        assert stats["shadow"]["scored"] == len(feed_item_ids)
        assert stats["shadow_errors"] == 0

    def test_crashing_shadow_counted_not_fatal(
        self, trained_cats, feed, feed_item_ids
    ):
        class Exploding:
            def observe_feed(self, comments, sales=()):
                raise RuntimeError("boom")

            def compare(self, results):
                raise RuntimeError("boom")

            def stats(self):
                return {}

            def close(self):
                pass

        service = DetectionService(
            trained_cats, rescore_growth=1.0, max_delay_ms=2,
            shadow=Exploding(),
        ).start()
        try:
            service.feed(feed[:40])
            item_ids = sorted({r.item_id for r in feed[:40]})
            assert service.score(item_ids)
            assert service.stats()["shadow_errors"] >= 1
        finally:
            service.stop()
