"""Tests for repro.mlops.replay (recorder + offline re-scoring)."""

from __future__ import annotations

import json

import pytest

from repro.mlops.replay import (
    RecordingError,
    TrafficRecorder,
    compare_recording,
    iter_recording,
    replay_recording,
)
from repro.serving import DetectionService


@pytest.fixture(scope="module")
def recording(tmp_path_factory, feed):
    """A recording written the way the serving layer writes one."""
    path = tmp_path_factory.mktemp("rec") / "traffic.jsonl"
    recorder = TrafficRecorder(path)
    for start in range(0, len(feed), 25):
        chunk = feed[start : start + 25]
        sales = [(chunk[0].item_id, 100 + start)] if start % 50 == 0 else []
        recorder.record(chunk, sales)
    recorder.close()
    return path


class TestRecorder:
    def test_counts(self, recording, feed):
        events = list(iter_recording(recording))
        assert sum(len(c) for c, _ in events) == len(feed)

    def test_roundtrip_preserves_records(self, recording, feed):
        replayed = [c for comments, _ in iter_recording(recording)
                    for c in comments]
        assert replayed == feed

    def test_empty_event_skipped(self, tmp_path):
        recorder = TrafficRecorder(tmp_path / "r.jsonl")
        recorder.record([], [])
        recorder.close()
        assert recorder.n_events == 0
        assert list(iter_recording(tmp_path / "r.jsonl")) == []

    def test_stats(self, tmp_path, feed):
        recorder = TrafficRecorder(tmp_path / "r.jsonl")
        recorder.record(feed[:10], [(feed[0].item_id, 5)])
        stats = recorder.stats()
        assert stats == {
            "events_recorded": 1,
            "comments_recorded": 10,
            "sales_recorded": 1,
        }
        recorder.close()

    def test_missing_recording_raises(self, tmp_path):
        with pytest.raises(RecordingError):
            list(iter_recording(tmp_path / "nope.jsonl"))

    def test_malformed_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"comments": [{"bogus": 1}], "sales": []}\n')
        with pytest.raises(RecordingError, match="bad.jsonl:1"):
            list(iter_recording(path))


class TestReplay:
    def test_replay_matches_live_service(
        self, trained_cats, feed, feed_item_ids, tmp_path
    ):
        """A replayed recording reproduces the recording service's
        final scores bit-identically."""
        recording = tmp_path / "live.jsonl"
        service = DetectionService(
            trained_cats,
            rescore_growth=1.0,
            max_delay_ms=2,
            recorder=TrafficRecorder(recording),
        ).start()
        try:
            service.feed(feed)
            live_scores = service.score(feed_item_ids)
        finally:
            service.stop()
        result = replay_recording(trained_cats, recording, rescore_growth=1.0)
        assert result.probabilities == live_scores
        assert result.n_comments == len(feed)
        assert result.n_items == len(feed_item_ids)

    def test_summary_shape(self, trained_cats, recording):
        result = replay_recording(trained_cats, recording, rescore_growth=1.0)
        summary = result.summary()
        assert summary["n_items"] > 0
        assert summary["n_flagged"] == len(result.flagged)
        assert 0.0 < summary["threshold"] < 1.0

    def test_sales_applied(self, trained_cats, recording):
        result = replay_recording(trained_cats, recording, rescore_growth=1.0)
        assert result.n_sales > 0


class TestCompare:
    def test_self_comparison_is_clean(self, trained_cats, recording):
        report = compare_recording(
            trained_cats, trained_cats, recording, rescore_growth=1.0
        )
        comparison = report["comparison"]
        assert comparison["flipped_verdicts"] == 0
        assert comparison["max_abs_delta"] == 0.0
        assert comparison["n_items"] > 0
        assert (
            sum(comparison["delta_histogram"].values())
            == comparison["n_items"]
        )

    def test_challenger_comparison_reports(
        self, trained_cats, challenger_cats, recording
    ):
        report = compare_recording(
            trained_cats,
            challenger_cats,
            recording,
            rescore_growth=1.0,
            champion_info={"version": 1},
            challenger_info={"version": 2},
            top_n=3,
        )
        assert report["champion"]["model"] == {"version": 1}
        assert report["challenger"]["model"] == {"version": 2}
        comparison = report["comparison"]
        assert len(comparison["top_disagreements"]) <= 3
        deltas = [d["delta"] for d in comparison["top_disagreements"]]
        assert deltas == sorted(deltas, reverse=True)
        # The report round-trips through JSON (it feeds `cats replay`).
        json.dumps(report)
