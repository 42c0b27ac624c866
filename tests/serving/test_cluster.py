"""Tests for repro.serving.cluster (shared-nothing multi-process shards).

The integration tests spawn real ``repro.cli serve`` worker processes
behind a live router, so they cover the same surface as production:
routing by item id, cross-shard fan-out/fan-in, per-shard checkpoint
lineages, and SIGKILL recovery with bit-identical replay.
"""

from __future__ import annotations

import dataclasses
import json
from collections import Counter

import pytest

from repro.core.persistence import save_cats
from repro.core.streaming import StreamingDetector, shard_of
from repro.serving.cluster import (
    ShardCluster,
    aggregate_shard_stats,
    shard_checkpoint_dir,
)

N_SHARDS = 2


class TestShardOf:
    def test_range_and_determinism(self):
        for item_id in range(1, 500):
            owner = shard_of(item_id, 7)
            assert 0 <= owner < 7
            assert owner == shard_of(item_id, 7)

    def test_single_shard_owns_everything(self):
        assert all(shard_of(i, 1) == 0 for i in range(100))

    def test_partition_is_total(self):
        """Every id is owned by exactly one shard, and a realistic id
        population spreads across all of them."""
        owners = Counter(shard_of(i, 4) for i in range(1, 1000))
        assert sorted(owners) == [0, 1, 2, 3]

    def test_invalid_shard_count(self):
        with pytest.raises(ValueError):
            shard_of(1, 0)


class TestAggregation:
    def test_sums_known_numeric_counters(self):
        merged = aggregate_shard_stats(
            [
                {"records_observed": 10, "alerts": 1, "noise": "x"},
                {"records_observed": 32, "alerts": 0, "other": 9},
            ]
        )
        assert merged["records_observed"] == 42
        assert merged["alerts"] == 1
        assert "noise" not in merged
        assert "other" not in merged

    def test_merges_telemetry(self):
        merged = aggregate_shard_stats(
            [
                {"telemetry": {"counters": {"a": 1}, "gauges": {}}},
                {"telemetry": {"counters": {"a": 2, "b": 5}, "gauges": {}}},
            ]
        )
        assert merged["telemetry"]["counters"] == {"a": 3, "b": 5}

    def test_checkpoint_dir_layout(self, tmp_path):
        assert (
            shard_checkpoint_dir(tmp_path, 3) == tmp_path / "shard-0003"
        )


class TestShardStamp:
    """Checkpoints carry their partition; restores enforce it."""

    def shard_feed(self, feed, index: int, count: int):
        return [r for r in feed if shard_of(r.item_id, count) == index]

    def test_stamped_roundtrip(self, trained_cats, feed):
        detector = StreamingDetector(trained_cats, rescore_growth=1.0)
        detector.observe_many(self.shard_feed(feed, 1, 2))
        state = detector.export_state(shard=(1, 2))
        assert state["shard"] == {"shard_index": 1, "shard_count": 2}

        restored = StreamingDetector(trained_cats)
        restored.restore_state(state, expected_shard=(1, 2))
        assert restored.n_observed == detector.n_observed

    def test_wrong_stamp_rejected(self, trained_cats, feed):
        detector = StreamingDetector(trained_cats, rescore_growth=1.0)
        detector.observe_many(self.shard_feed(feed, 1, 2))
        state = detector.export_state(shard=(1, 2))
        with pytest.raises(ValueError, match="shard"):
            StreamingDetector(trained_cats).restore_state(
                state, expected_shard=(0, 2)
            )
        with pytest.raises(ValueError, match="shard"):
            StreamingDetector(trained_cats).restore_state(
                state, expected_shard=(1, 4)
            )

    def test_unstamped_snapshot_verified_item_by_item(
        self, trained_cats, feed
    ):
        """A pre-cluster (unstamped) checkpoint restores into the shard
        that owns its items and is rejected anywhere else."""
        detector = StreamingDetector(trained_cats, rescore_growth=1.0)
        detector.observe_many(self.shard_feed(feed, 0, 2))
        state = detector.export_state()  # no stamp
        assert "shard" not in state

        StreamingDetector(trained_cats).restore_state(
            state, expected_shard=(0, 2)
        )
        with pytest.raises(ValueError, match="shard"):
            StreamingDetector(trained_cats).restore_state(
                state, expected_shard=(1, 2)
            )


@pytest.fixture(scope="module")
def model_dir(trained_cats, d0_small, tmp_path_factory):
    directory = tmp_path_factory.mktemp("cluster-model")
    save_cats(trained_cats, directory)
    # A drift reference next to the archive turns on per-shard drift
    # monitoring, so the router's /drift fan-in is exercised too.
    from repro.mlops import ReferenceHistogram

    ReferenceHistogram.from_matrix(
        trained_cats.extract_features(d0_small.items[:150])
    ).save(directory)
    return directory


@pytest.fixture(scope="module")
def cluster(model_dir, tmp_path_factory):
    instance = ShardCluster(
        model_dir,
        N_SHARDS,
        checkpoint_root=tmp_path_factory.mktemp("cluster-ckpts"),
        worker_args=(
            "--max-delay-ms", "2",
            "--max-batch", "16",
            "--rescore-growth", "1.0",
            "--checkpoint-every", "40",
        ),
    )
    instance.start()
    yield instance
    instance.stop()


@pytest.fixture(scope="module")
def router(cluster):
    """A fresh-connection client against the cluster router."""
    import http.client

    def request(method, path, body=None):
        conn = http.client.HTTPConnection(
            cluster.host, cluster.port, timeout=60
        )
        try:
            conn.request(
                method,
                path,
                body=json.dumps(body) if body is not None else None,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            return response.status, json.loads(response.read())
        finally:
            conn.close()

    return request


def feed_chunks(feed, n_chunks: int = 4):
    size = (len(feed) + n_chunks - 1) // n_chunks
    return [feed[i : i + size] for i in range(0, len(feed), size)]


class TestClusterServing:
    def test_end_to_end_routing_and_recovery(
        self, cluster, router, trained_cats, feed, feed_item_ids
    ):
        status, health = router("GET", "/healthz")
        assert status == 200
        assert health["n_shards"] == N_SHARDS
        assert health["shards_alive"] == N_SHARDS

        # -- ingest through the router, in several multi-shard posts --
        accepted = 0
        for chunk in feed_chunks(feed):
            status, ack = router(
                "POST",
                "/ingest",
                {"comments": [dataclasses.asdict(r) for r in chunk]},
            )
            assert status == 200
            accepted += ack["accepted"]
        assert accepted == len(feed)

        sales_item = feed[0].item_id
        status, ack = router(
            "POST", "/ingest", {"sales": [[sales_item, 4242]]}
        )
        assert status == 200
        assert ack["sales_updates"] == 1

        # -- partition correctness: each worker holds exactly the
        #    records its shard owns, and stamps its identity ----------
        owned = Counter(
            shard_of(r.item_id, N_SHARDS) for r in feed
        )
        for worker in cluster.workers:
            status, stats = worker.request("GET", "/stats")
            assert status == 200
            assert stats["shard_index"] == worker.shard_index
            assert stats["shard_count"] == N_SHARDS
            assert stats["records_observed"] == owned[worker.shard_index]
        assert min(owned.values()) > 0  # the feed really is split

        # -- cross-shard score fan-out matches one single-process run -
        reference = StreamingDetector(trained_cats, rescore_growth=1.0)
        reference.observe_many(feed)
        reference.update_sales(sales_item, 4242)
        expected = reference.force_rescore_many(feed_item_ids)
        status, scored = router(
            "POST", "/score", {"item_ids": feed_item_ids}
        )
        assert status == 200
        merged = {
            int(item_id): probability
            for item_id, probability in scored["probabilities"].items()
        }
        assert merged == expected

        # -- alert fan-in: same alerts, shard order aside -------------
        status, alerts = router("GET", "/alerts")
        assert status == 200
        assert sorted(
            alert["item_id"] for alert in alerts["alerts"]
        ) == sorted(alert.item_id for alert in reference.alerts)

        # -- aggregated stats and merged telemetry --------------------
        status, stats = router("GET", "/stats")
        assert status == 200
        assert stats["records_observed"] == len(feed)
        assert stats["shards_reporting"] == N_SHARDS
        assert len(stats["shards"]) == N_SHARDS
        assert stats["telemetry"]["counters"]["http_requests_ingest"] >= 2
        assert (
            stats["router"]["telemetry"]["counters"]["router_records_routed"]
            == len(feed)
        )

        # -- SIGKILL one shard: cluster degrades, others keep serving -
        cluster.kill_shard(0)
        status, health = router("GET", "/healthz")
        assert status == 503
        assert health["shards_alive"] == N_SHARDS - 1
        survivor_ids = [
            i for i in feed_item_ids if shard_of(i, N_SHARDS) == 1
        ]
        status, scored = router(
            "POST", "/score", {"item_ids": survivor_ids[:3]}
        )
        assert status == 200

        # -- restart + replay the full feed: bit-identical scores -----
        cluster.restart_shard(0)
        status, health = router("GET", "/healthz")
        assert status == 200
        for chunk in feed_chunks(feed):
            status, _ = router(
                "POST",
                "/ingest",
                {"comments": [dataclasses.asdict(r) for r in chunk]},
            )
            assert status == 200
        status, _ = router(
            "POST", "/ingest", {"sales": [[sales_item, 4242]]}
        )
        assert status == 200
        status, scored = router(
            "POST", "/score", {"item_ids": feed_item_ids}
        )
        assert status == 200
        replayed = {
            int(item_id): probability
            for item_id, probability in scored["probabilities"].items()
        }
        assert replayed == expected

    def test_router_validation_and_error_propagation(self, router):
        # Malformed bodies die at the router; no shard sees them.
        assert router("POST", "/ingest", {"sales": [[1]]})[0] == 400
        assert router("POST", "/ingest", {"comments": 7})[0] == 400
        assert router("POST", "/score", {"item_ids": [None]})[0] == 400
        assert router("POST", "/score", {"wrong": 1})[0] == 400
        assert router("GET", "/nope")[0] == 404
        assert router("POST", "/nope", {})[0] == 404
        # A shard's 404 (unknown item) propagates through the router.
        status, body = router(
            "POST", "/score", {"item_ids": [987654321]}
        )
        assert status == 404
        assert "987654321" in body["error"]
        # Empty requests short-circuit without touching any shard.
        assert router("POST", "/ingest", {"comments": []})[0] == 200
        assert router("POST", "/score", {"item_ids": []})[0] == 200

    def test_router_rejects_lone_surrogate_text(self, router, feed):
        """Text no checkpoint can encode dies at the router: 400, and
        no shard sees the record."""
        row = dataclasses.asdict(feed[0])
        row["content"] += "\ud83d"
        _, before = router("GET", "/stats")
        status, body = router("POST", "/ingest", {"comments": [row]})
        assert status == 400
        assert "UTF-8" in body["error"]
        _, after = router("GET", "/stats")
        assert after["records_observed"] == before["records_observed"]

    def test_misrouted_record_rejected_by_worker(self, cluster, feed):
        """A worker refuses records another shard owns (router bug
        containment): 400, and no state is mutated."""
        wrong = next(
            r for r in feed if shard_of(r.item_id, N_SHARDS) == 1
        )
        worker = cluster.workers[0]
        _, before = worker.request("GET", "/stats")
        status, body = worker.request(
            "POST", "/ingest", {"comments": [dataclasses.asdict(wrong)]}
        )
        assert status == 400
        assert "shard" in body["error"]
        _, after = worker.request("GET", "/stats")
        assert after["records_observed"] == before["records_observed"]


class TestClusterDrift:
    """Router /drift fan-in (runs against the shared module cluster,
    after the end-to-end test has pushed traffic through it)."""

    def test_drift_fans_in_across_shards(self, cluster, router, feed):
        # Make sure both shards have observed something.
        status, __ = router(
            "POST",
            "/ingest",
            {"comments": [dataclasses.asdict(r) for r in feed[:60]]},
        )
        assert status == 200
        status, payload = router("GET", "/drift")
        assert status == 200
        assert payload["n_shards"] == N_SHARDS
        assert payload["shards_monitored"] == N_SHARDS
        assert len(payload["shards"]) == N_SHARDS
        assert payload["n_live_rows"] == sum(
            shard["n_live_rows"] for shard in payload["shards"]
        )
        assert payload["max_psi"] == pytest.approx(
            max(shard["max_psi"] for shard in payload["shards"])
        )
        for shard in payload["shards"]:
            assert shard["n_live_rows"] > 0
            assert shard["model"]["content_hash"]

    def test_unmonitored_cluster_is_404(
        self, trained_cats, tmp_path_factory
    ):
        plain_model = tmp_path_factory.mktemp("plain-model")
        save_cats(trained_cats, plain_model)
        instance = ShardCluster(
            plain_model,
            1,
            worker_args=("--max-delay-ms", "2"),
        )
        instance.start()
        try:
            import http.client

            conn = http.client.HTTPConnection(
                instance.host, instance.port, timeout=60
            )
            conn.request("GET", "/drift")
            response = conn.getresponse()
            payload = json.loads(response.read())
            conn.close()
            assert response.status == 404
            assert "not configured" in payload["error"]
        finally:
            instance.stop()
