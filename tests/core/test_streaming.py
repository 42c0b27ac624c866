"""Tests for repro.core.streaming."""

import dataclasses
import random

import numpy as np
import pytest

from repro.analysis.adapters import comment_records_for_item
from repro.collector.records import CommentRecord
from repro.core.streaming import StreamingDetector


def make_records(texts, item_id=1):
    """Fabricate a comment feed for one item from raw texts."""
    return [
        CommentRecord(
            item_id=item_id,
            comment_id=i,
            content=text,
            nickname="user",
            user_exp_value=1,
            client="pc",
            date="2020-01-01",
        )
        for i, text in enumerate(texts)
    ]


@pytest.fixture()
def stream(trained_cats):
    return StreamingDetector(trained_cats, rescore_growth=1.0)


def records_for(platform, item):
    return comment_records_for_item(platform, item)


class TestValidation:
    def test_bad_growth(self, trained_cats):
        with pytest.raises(ValueError):
            StreamingDetector(trained_cats, rescore_growth=0.5)

    def test_bad_min_comments(self, trained_cats):
        with pytest.raises(ValueError):
            StreamingDetector(trained_cats, min_comments_to_score=0)

    def test_unknown_item_rescore(self, stream):
        with pytest.raises(KeyError):
            stream.force_rescore(42)


class TestIngestion:
    def test_tracks_items(self, stream, taobao_platform):
        item = taobao_platform.items[0]
        for record in records_for(taobao_platform, item)[:2]:
            stream.observe(record)
        assert stream.n_items_tracked == 1

    def test_no_score_below_min_comments(self, trained_cats, taobao_platform):
        stream = StreamingDetector(trained_cats, min_comments_to_score=5)
        item = next(
            i for i in taobao_platform.items if len(i.comments) >= 6
        )
        records = records_for(taobao_platform, item)
        for record in records[:4]:
            stream.observe(record)
        assert stream.probability(item.item_id) == 0.0

    def test_sales_updates_monotone(self, stream):
        stream.update_sales(7, 10)
        stream.update_sales(7, 5)
        assert stream._items[7].sales_volume == 10


class TestAlerting:
    def test_fraud_item_stream_alerts(self, trained_cats, taobao_platform):
        stream = StreamingDetector(trained_cats, rescore_growth=1.0)
        # Pick the fraud item with the most comments.
        fraud = max(
            taobao_platform.fraud_items, key=lambda i: len(i.comments)
        )
        stream.update_sales(fraud.item_id, fraud.sales_volume)
        alerts = stream.observe_many(records_for(taobao_platform, fraud))
        assert len(alerts) == 1
        assert alerts[0].item_id == fraud.item_id
        assert alerts[0].fraud_probability >= (
            trained_cats.config.detector.threshold
        )

    def test_alert_emitted_once(self, trained_cats, taobao_platform):
        stream = StreamingDetector(trained_cats, rescore_growth=1.0)
        fraud = max(
            taobao_platform.fraud_items, key=lambda i: len(i.comments)
        )
        stream.update_sales(fraud.item_id, fraud.sales_volume)
        records = records_for(taobao_platform, fraud)
        stream.observe_many(records)
        # Feed the same stream again: no duplicate alert.
        more = stream.observe_many(records)
        assert more == []
        assert len(stream.alerts) == 1

    def test_normal_items_stay_quiet(self, trained_cats, taobao_platform):
        stream = StreamingDetector(trained_cats, rescore_growth=1.0)
        quiet = [
            i
            for i in taobao_platform.normal_items
            if 3 <= len(i.comments) <= 10
        ][:20]
        for item in quiet:
            stream.update_sales(item.item_id, item.sales_volume)
            stream.observe_many(records_for(taobao_platform, item))
        flagged = set(stream.flagged_items())
        assert len(flagged & {i.item_id for i in quiet}) <= 2

    def test_rule_filter_blocks_low_sales(self, trained_cats, taobao_platform):
        """An item whose sales stay below the rule threshold never alerts,
        however fraudulent its comments look."""
        from repro.collector.records import CommentRecord

        fraud = max(
            taobao_platform.fraud_items, key=lambda i: len(i.comments)
        )
        records = records_for(taobao_platform, fraud)[:4]
        stream = StreamingDetector(trained_cats, rescore_growth=1.0)
        alerts = stream.observe_many(records)
        # 4 comments => inferred sales 4 < rule minimum 5.
        assert alerts == []


class TestRescorePolicy:
    def test_growth_factor_limits_scoring(self, trained_cats, taobao_platform):
        item = next(
            i for i in taobao_platform.items if len(i.comments) >= 8
        )
        records = records_for(taobao_platform, item)

        calls = []
        lazy = StreamingDetector(
            trained_cats, rescore_growth=2.0, min_comments_to_score=3
        )
        original = lazy._score_due

        def counting_score(due):
            calls.extend(item_id for item_id, _ in due)
            return original(due)

        lazy._score_due = counting_score
        lazy.observe_many(records[:8])
        # Scorings at sizes 3, 6 (>= 2x3); not on every comment.
        assert len(calls) <= 3

    def test_force_rescore_returns_probability(
        self, stream, taobao_platform
    ):
        item = next(
            i for i in taobao_platform.items if len(i.comments) >= 3
        )
        stream.observe_many(records_for(taobao_platform, item))
        p = stream.force_rescore(item.item_id)
        assert 0.0 <= p <= 1.0
        assert stream.probability(item.item_id) == p

    def test_force_rescore_respects_floor_on_empty_buffer(
        self, trained_cats
    ):
        """Regression: force_rescore used to score an empty buffer
        (bypassing min_comments_to_score) and could alert on it."""
        stream = StreamingDetector(trained_cats, min_comments_to_score=3)
        stream.update_sales(7, 100)  # tracked, zero comments buffered
        assert stream.force_rescore(7) == 0.0
        assert stream.alerts == []
        assert stream._items[7].last_scored_size == 0

    def test_force_rescore_below_floor_keeps_last_probability(
        self, trained_cats, taobao_platform
    ):
        stream = StreamingDetector(
            trained_cats, rescore_growth=1.0, min_comments_to_score=5
        )
        item = next(
            i for i in taobao_platform.items if len(i.comments) >= 3
        )
        stream.observe_many(records_for(taobao_platform, item)[:4])
        # 4 < 5: no scoring happened and forcing must not score either.
        assert stream.force_rescore(item.item_id) == 0.0
        assert stream._items[item.item_id].last_scored_size == 0

    def test_force_rescore_at_floor_scores(self, trained_cats, taobao_platform):
        stream = StreamingDetector(
            trained_cats, rescore_growth=2.0, min_comments_to_score=3
        )
        item = next(
            i for i in taobao_platform.items if len(i.comments) >= 3
        )
        stream.observe_many(records_for(taobao_platform, item)[:3])
        stream.force_rescore(item.item_id)
        assert stream._items[item.item_id].last_scored_size == 3

    def test_streaming_matches_batch_score(
        self, trained_cats, taobao_platform
    ):
        """After the full stream, the score equals batch detection."""
        item = max(
            taobao_platform.fraud_items, key=lambda i: len(i.comments)
        )
        stream = StreamingDetector(trained_cats, rescore_growth=1.0)
        stream.update_sales(item.item_id, item.sales_volume)
        stream.observe_many(records_for(taobao_platform, item))
        streamed = stream.force_rescore(item.item_id)
        features = trained_cats.extract_features([item])
        batch = float(
            trained_cats.detector.predict_proba(features)[0]
        )
        assert streamed == pytest.approx(batch)

    def test_incremental_features_bit_identical_to_batch(
        self, trained_cats, taobao_platform
    ):
        """The accumulator invariant end-to-end: after streaming, the
        per-item running sums yield exactly the batch feature vector."""
        item = next(
            i for i in taobao_platform.items if len(i.comments) >= 4
        )
        stream = StreamingDetector(trained_cats, rescore_growth=1.0)
        stream.observe_many(records_for(taobao_platform, item))
        state = stream._items[item.item_id]
        np.testing.assert_array_equal(
            state.accumulator.to_vector(),
            trained_cats.feature_extractor.extract(item.comment_texts),
        )


class TestOneScoringPath:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_batched_rescore_equals_per_item_rescore(
        self, trained_cats, taobao_platform, seed
    ):
        """``observe`` plus ``force_rescore_many`` on random batches and
        per-item ``force_rescore`` in the same order agree on every
        probability, alert, scored size and the exported state."""
        rng = random.Random(seed)
        items = sorted(
            taobao_platform.fraud_items[:6] + taobao_platform.normal_items[:6],
            key=lambda item: item.item_id,
        )
        per_item = [records_for(taobao_platform, item) for item in items]
        feed = [
            records[level]
            for level in range(max(len(r) for r in per_item))
            for records in per_item
            if level < len(records)
        ]
        sales = {item.item_id: item.sales_volume for item in items}
        batched = StreamingDetector(trained_cats, rescore_growth=1.5)
        single = StreamingDetector(trained_cats, rescore_growth=1.5)
        start = 0
        while start < len(feed):
            chunk = feed[start : start + rng.randint(1, 12)]
            start += len(chunk)
            assert batched.observe_many(chunk) == single.observe_many(chunk)
            tracked = batched.tracked_items()
            # Listing data lags the comments: an item scored while the
            # rule filter blocked it is re-scored once its sales land.
            lagging = rng.choice(tracked)
            for stream in (batched, single):
                stream.update_sales(lagging, sales[lagging])
            batch = [rng.choice(tracked) for _ in range(rng.randint(1, 6))]
            expected = {
                item_id: single.force_rescore(item_id) for item_id in batch
            }
            assert batched.force_rescore_many(batch) == expected
            assert batched.alerts == single.alerts
            for item_id in tracked:
                assert (
                    batched._items[item_id].last_scored_size
                    == single._items[item_id].last_scored_size
                )
        assert batched.alerts, "the feed should raise at least one alert"
        assert batched.export_state() == single.export_state()


class TestIncrementalCost:
    def test_each_comment_segmented_once(
        self, trained_cats, taobao_platform, monkeypatch
    ):
        """Streaming a feed with rescoring on every comment must stay
        O(n) in segmentation calls; with the shared analysis cache the
        bound tightens to one call per *distinct* text.  The baseline
        replays what the pre-accumulator, pre-cache implementation did:
        re-extract the whole buffer at every rescore, uncached."""
        from repro.core.features import FeatureExtractor

        texts = []
        for item in taobao_platform.items:
            texts.extend(item.comment_texts)
            if len(texts) >= 60:
                break
        texts = texts[:60]

        analyzer = trained_cats.analyzer
        calls = {"n": 0}
        original = analyzer.segment

        def counting(text):
            calls["n"] += 1
            return original(text)

        monkeypatch.setattr(analyzer, "segment", counting)

        # Other tests share the session-scoped extractor; start from a
        # cold cache so the call count is deterministic.
        trained_cats.feature_extractor.clear_cache()
        stream = StreamingDetector(
            trained_cats, rescore_growth=1.0, min_comments_to_score=3
        )
        stream.observe_many(make_records(texts))
        incremental = calls["n"]
        assert incremental == len(set(texts))

        # O(n^2) baseline: re-extract the full buffer at each rescore
        # through an uncached extractor (the historical behaviour).
        calls["n"] = 0
        baseline_extractor = FeatureExtractor(analyzer, cache_size=0)
        for size in range(3, len(texts) + 1):
            baseline_extractor.extract(texts[:size])
        baseline = calls["n"]
        assert incremental < baseline


class TestDedupe:
    def test_duplicate_observe_is_ignored(self, stream, taobao_platform):
        item = next(
            i for i in taobao_platform.items if len(i.comments) >= 4
        )
        records = records_for(taobao_platform, item)
        stream.observe_many(records)
        before = stream._items[item.item_id].accumulator.to_vector().copy()
        stream.observe_many(records)  # crawler re-delivers the same page
        state = stream._items[item.item_id]
        assert len(state.comments) == len(records)
        np.testing.assert_array_equal(
            state.accumulator.to_vector(), before
        )

    def test_observed_and_duplicate_counters(self, stream, taobao_platform):
        item = next(
            i for i in taobao_platform.items if len(i.comments) >= 4
        )
        records = records_for(taobao_platform, item)
        stream.observe_many(records)
        stream.observe_many(records[:3])
        assert stream.n_observed == len(records) + 3
        assert stream.n_duplicates == 3

    def test_same_text_different_comment_id_is_not_a_duplicate(self, stream):
        records = make_records(["好评" for _ in range(4)])
        stream.observe_many(records)
        assert stream.n_duplicates == 0
        assert len(stream._items[1].comments) == 4


class TestEviction:
    def test_max_tracked_items_bounds_memory(self, trained_cats):
        stream = StreamingDetector(trained_cats, max_tracked_items=5)
        for item_id in range(20):
            stream.observe_many(make_records(["不错"], item_id=item_id))
        assert stream.n_items_tracked == 5
        assert stream.n_evicted == 15
        # The survivors are the five most recently seen.
        assert sorted(stream._items) == list(range(15, 20))

    def test_lru_touch_on_observe(self, trained_cats):
        stream = StreamingDetector(trained_cats, max_tracked_items=2)
        stream.observe_many(make_records(["不错"], item_id=1))
        stream.observe_many(make_records(["不错"], item_id=2))
        stream.observe_many(make_records(["很好"], item_id=1))  # touch 1
        stream.observe_many(make_records(["不错"], item_id=3))  # evicts 2
        assert sorted(stream._items) == [1, 3]

    def test_explicit_evict(self, stream, taobao_platform):
        item = taobao_platform.items[0]
        stream.observe_many(records_for(taobao_platform, item))
        assert stream.evict(item.item_id) is True
        assert not stream.is_tracked(item.item_id)
        assert stream.evict(item.item_id) is False  # already gone

    def test_bad_max_tracked_items(self, trained_cats):
        with pytest.raises(ValueError):
            StreamingDetector(trained_cats, max_tracked_items=0)

    def test_evicted_then_reseen_item_does_not_realert(
        self, trained_cats, taobao_platform
    ):
        """The alerted set must survive eviction: a fraud item whose
        buffers were dropped and that is then re-crawled from scratch
        stays alerted-once."""
        stream = StreamingDetector(trained_cats, rescore_growth=1.0)
        fraud = max(
            taobao_platform.fraud_items, key=lambda i: len(i.comments)
        )
        stream.update_sales(fraud.item_id, fraud.sales_volume)
        records = records_for(taobao_platform, fraud)
        alerts = stream.observe_many(records)
        assert len(alerts) == 1

        stream.evict(fraud.item_id)
        assert not stream.is_tracked(fraud.item_id)
        assert stream.has_alerted(fraud.item_id)

        # Re-crawl the item from zero: dedupe cannot save us (the seen
        # set was evicted too), but the alert ledger must.
        stream.update_sales(fraud.item_id, fraud.sales_volume)
        again = stream.observe_many(records)
        assert again == []
        assert len(stream.alerts) == 1

    def test_eviction_pressure_never_duplicates_alerts(
        self, trained_cats, taobao_platform
    ):
        """Alerts stay at-most-once per item even when a tiny LRU bound
        forces fraud items in and out of the tracked set repeatedly."""
        stream = StreamingDetector(
            trained_cats, rescore_growth=1.0, max_tracked_items=3
        )
        items = sorted(
            taobao_platform.items,
            key=lambda i: len(i.comments),
            reverse=True,
        )[:12]
        for item in items:
            stream.update_sales(item.item_id, item.sales_volume)
        feed = []
        per_item = [records_for(taobao_platform, item) for item in items]
        depth = max(len(records) for records in per_item)
        for level in range(depth):
            for records in per_item:
                if level < len(records):
                    feed.append(records[level])
        stream.observe_many(feed)
        stream.observe_many(feed)  # full replay under eviction pressure
        alerted = [alert.item_id for alert in stream.alerts]
        assert len(alerted) == len(set(alerted))


class TestModelStamp:
    """Checkpoints pin the model that wrote them (restore under a
    different model must fail loudly, not silently mis-score)."""

    HASH_A = "a" * 64
    HASH_B = "b" * 64

    def _state(self, stream, model):
        return stream.export_state(model=model)

    def test_stamp_recorded(self, stream):
        state = self._state(stream, {"version": 3, "content_hash": self.HASH_A})
        assert state["model"] == {
            "version": 3, "content_hash": self.HASH_A
        }

    def test_none_fields_omitted(self, stream):
        state = stream.export_state(
            model={"version": None, "content_hash": self.HASH_A, "source": None}
        )
        assert state["model"] == {"content_hash": self.HASH_A}

    def test_matching_hash_restores(self, stream, trained_cats):
        state = self._state(stream, {"content_hash": self.HASH_A})
        StreamingDetector(trained_cats).restore_state(
            state, expected_model={"content_hash": self.HASH_A}
        )

    def test_hash_mismatch_rejected(self, stream, trained_cats):
        state = self._state(
            stream, {"version": 1, "content_hash": self.HASH_A}
        )
        with pytest.raises(ValueError, match="cannot restore under"):
            StreamingDetector(trained_cats).restore_state(
                state,
                expected_model={"version": 2, "content_hash": self.HASH_B},
            )

    def test_hash_authoritative_over_version(self, stream, trained_cats):
        """Same registry version number in two different registries:
        hashes still disagree and must win."""
        state = self._state(
            stream, {"version": 1, "content_hash": self.HASH_A}
        )
        with pytest.raises(ValueError):
            StreamingDetector(trained_cats).restore_state(
                state,
                expected_model={"version": 1, "content_hash": self.HASH_B},
            )

    def test_version_fallback_when_no_hashes(self, stream, trained_cats):
        state = self._state(stream, {"version": 1})
        with pytest.raises(ValueError, match="version"):
            StreamingDetector(trained_cats).restore_state(
                state, expected_model={"version": 2}
            )
        StreamingDetector(trained_cats).restore_state(
            state, expected_model={"version": 1}
        )

    def test_uncomparable_stamp_rejected(self, stream, trained_cats):
        state = self._state(stream, {"version": 1})
        with pytest.raises(ValueError):
            StreamingDetector(trained_cats).restore_state(
                state, expected_model={"content_hash": self.HASH_A}
            )

    def test_unstamped_snapshot_accepted(self, stream, trained_cats):
        """Pre-mlops checkpoints carry no stamp and still restore."""
        state = stream.export_state()
        assert "model" not in state
        StreamingDetector(trained_cats).restore_state(
            state, expected_model={"content_hash": self.HASH_A}
        )

    def test_no_expectation_ignores_stamp(self, stream, trained_cats):
        state = self._state(stream, {"content_hash": self.HASH_A})
        StreamingDetector(trained_cats).restore_state(state)


class TestExport:
    def test_comments_export_like_asdict(self, stream, taobao_platform):
        """Same values and key order as ``dataclasses.asdict``, so the
        checkpoint JSON is unchanged byte for byte."""
        item = next(
            i for i in taobao_platform.items if len(i.comments) >= 4
        )
        records = records_for(taobao_platform, item)
        stream.observe_many(records)
        (entry,) = [
            e for e in stream.export_state()["items"]
            if e["item_id"] == item.item_id
        ]
        expected = [dataclasses.asdict(r) for r in records]
        assert entry["comments"] == expected
        assert [list(c) for c in entry["comments"]] == [
            list(c) for c in expected
        ]
