"""Tests for repro.serving.httpd (stdlib HTTP front end)."""

from __future__ import annotations

import dataclasses
import json
import statistics
import threading
import time

import pytest

from repro.serving import DetectionService, make_server
from repro.serving.httpd import parse_comment_row


@pytest.fixture()
def served(trained_cats):
    """(service, client) around a live localhost server."""
    import http.client

    service = DetectionService(
        trained_cats, rescore_growth=1.0, max_batch=16, max_delay_ms=2
    ).start()
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    class Client:
        def __init__(self, port: int) -> None:
            self.port = port

        def request(self, method, path, body=None):
            conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=30
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

    yield service, Client(server.server_address[1])
    server.shutdown()
    server.server_close()
    service.stop()


class TestRowParsing:
    def test_asdict_shape(self, feed):
        row = dataclasses.asdict(feed[0])
        assert parse_comment_row(row) == feed[0]

    def test_listing2_shape(self, feed):
        record = feed[0]
        row = {
            "item_id": record.item_id,
            "comment_id": record.comment_id,
            "comment_content": record.content,
            "nickname": record.nickname,
            "userExpValue": record.user_exp_value,
            "client_information": record.client,
            "date": record.date,
        }
        assert parse_comment_row(row) == record

    def test_bad_row_rejected(self):
        from repro.collector.records import RecordParseError

        with pytest.raises(RecordParseError):
            parse_comment_row({"item_id": 1})
        with pytest.raises(RecordParseError):
            parse_comment_row("not an object")


class TestEndpoints:
    def test_healthz(self, served):
        _, client = served
        status, body = client.request("GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"

    def test_ingest_then_score_and_alerts(
        self, served, trained_cats, feed, feed_item_ids
    ):
        from repro.core.streaming import StreamingDetector

        _, client = served
        rows = [dataclasses.asdict(record) for record in feed]
        status, ack = client.request(
            "POST", "/ingest", {"comments": rows}
        )
        assert status == 200
        assert ack["accepted"] == len(feed)
        assert ack["duplicates"] == 0

        status, scored = client.request(
            "POST", "/score", {"item_ids": feed_item_ids}
        )
        assert status == 200
        reference = StreamingDetector(trained_cats, rescore_growth=1.0)
        reference.observe_many(feed)
        expected = reference.force_rescore_many(feed_item_ids)
        assert {
            int(item_id): probability
            for item_id, probability in scored["probabilities"].items()
        } == expected

        status, alerts = client.request("GET", "/alerts")
        assert status == 200
        assert alerts["count"] == len(reference.alerts)
        assert alerts["alerts"] == [
            dataclasses.asdict(a) for a in reference.alerts
        ]

    def test_ingest_sales_updates(self, served, feed):
        service, client = served
        item_id = feed[0].item_id
        rows = [dataclasses.asdict(record) for record in feed[:5]]
        status, ack = client.request(
            "POST",
            "/ingest",
            {"comments": rows, "sales": [[item_id, 9999]]},
        )
        assert status == 200
        assert ack["sales_updates"] == 1
        assert service.stream._items[item_id].sales_volume == 9999

    def test_stats(self, served, feed):
        _, client = served
        rows = [dataclasses.asdict(record) for record in feed[:20]]
        client.request("POST", "/ingest", {"comments": rows})
        status, stats = client.request("GET", "/stats")
        assert status == 200
        assert stats["records_observed"] == 20
        assert stats["queue_capacity"] == 256


class TestDefaultBatching:
    def test_lone_client_is_not_held(
        self, trained_cats, feed, feed_item_ids
    ):
        """A client that waits for every reply never has company to
        batch with; the old 25 ms default hold made every round trip
        >= 25 ms.  Fresh connections keep the delayed-ACK stall out."""
        import http.client

        service = DetectionService(trained_cats, rescore_growth=1.0).start()
        server = make_server(service, port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        port = server.server_address[1]
        body = json.dumps({"item_ids": feed_item_ids[:4]})
        samples = []
        try:
            service.feed(feed, timeout=60)
            for _ in range(30):
                conn = http.client.HTTPConnection(
                    "127.0.0.1", port, timeout=30
                )
                start = time.perf_counter()
                conn.request("POST", "/score", body=body)
                response = conn.getresponse()
                response.read()
                samples.append((time.perf_counter() - start) * 1000.0)
                conn.close()
                assert response.status == 200
        finally:
            server.shutdown()
            server.server_close()
            service.stop()
        assert statistics.median(samples) < 20


class TestErrorMapping:
    def test_unknown_path(self, served):
        _, client = served
        assert client.request("GET", "/nope")[0] == 404
        assert client.request("POST", "/nope", {})[0] == 404

    def test_unknown_item_is_404(self, served):
        _, client = served
        status, body = client.request(
            "POST", "/score", {"item_ids": [987654321]}
        )
        assert status == 404
        assert "987654321" in body["error"]

    def test_malformed_bodies_are_400(self, served):
        _, client = served
        assert client.request("POST", "/ingest", {"comments": [{}]})[0] == 400
        assert client.request("POST", "/ingest", {"comments": 7})[0] == 400
        assert client.request("POST", "/score", {"wrong": 1})[0] == 400
        assert client.request("POST", "/score", None)[0] == 400

    def test_stopping_service_is_503(self, served):
        service, client = served
        service._batcher.stop()
        status, _ = client.request(
            "POST", "/score", {"item_ids": [1]}
        )
        assert status == 503

    def test_malformed_sales_rows_are_400_not_dropped(self, served):
        """Regression: a sales row like ``[1]`` or ``[null, 5]`` used
        to raise an uncaught TypeError inside the handler, dropping the
        connection instead of answering.  Getting *any* status back
        proves the connection survived; it must be a 400."""
        _, client = served
        for body in (
            {"sales": [[1]]},
            {"sales": [7]},
            {"sales": [[None, 5]]},
            {"sales": [[1, 2, 3]]},
            {"sales": "nope"},
            {"comments": [], "sales": [["x", "y"]]},
        ):
            status, payload = client.request("POST", "/ingest", body)
            assert status == 400, body
            assert "error" in payload

    def test_lone_surrogate_text_is_400(self, served, feed):
        """A ``"\\ud83d"`` escape decodes to a lone surrogate, which no
        checkpoint can encode: the whole request is refused, unapplied."""
        service, client = served
        row = dataclasses.asdict(feed[0])
        row["content"] += "\ud83d"
        status, payload = client.request(
            "POST",
            "/ingest",
            {"comments": [row], "sales": [[row["item_id"], 9]]},
        )
        assert status == 400
        assert "UTF-8" in payload["error"]
        stats = service.stats()
        assert stats["records_observed"] == 0
        assert stats["sales_updates"] == 0

    def test_null_item_ids_are_400_not_dropped(self, served):
        _, client = served
        status, payload = client.request(
            "POST", "/score", {"item_ids": [None]}
        )
        assert status == 400
        assert "error" in payload
        assert client.request("POST", "/score", {"item_ids": 3})[0] == 400


class TestAtomicAcknowledgement:
    """An /ingest acknowledgement must never lie about partial work."""

    @pytest.fixture()
    def gated_served(self, trained_cats):
        """A served service whose scheduler blocks until released,
        with a 2-deep queue so tests control exactly how full it is."""
        import http.client

        service = DetectionService(
            trained_cats,
            rescore_growth=1.0,
            max_batch=1,
            max_delay_ms=0,
            queue_depth=2,
        )
        started = threading.Event()
        release = threading.Event()
        original = service._batcher._process_batch

        def gated(batch):
            started.set()
            release.wait(30)
            original(batch)

        service._batcher._process_batch = gated
        service.start()
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()

        def request(method, path, body=None):
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.server_address[1], timeout=60
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

        yield service, request, started, release
        release.set()
        server.shutdown()
        server.server_close()
        service.stop()

    def _occupy_scheduler(self, service, started):
        """Park the scheduler inside the gate on a no-op batch."""
        service.submit_feed([])
        assert started.wait(10)

    def test_ack_applies_everything_when_queue_has_room(
        self, gated_served, feed
    ):
        """Regression: sales updates were submitted as separate queue
        entries before the comment ingest, so with one free slot the
        sale got in, the ingest was shed, and the 503 acknowledgement
        lied (the sale still applied).  As one atomic entry the whole
        request fits the free slot and the ack reports all of it."""
        service, request, started, release = gated_served
        self._occupy_scheduler(service, started)
        service.submit_feed([])  # one of two slots -> one free
        record = feed[0]
        body = {
            "comments": [dataclasses.asdict(record)],
            "sales": [[record.item_id, 7777]],
        }
        outcome = {}

        def post():
            outcome["response"] = request("POST", "/ingest", body)

        poster = threading.Thread(target=post)
        poster.start()
        # Give the request time to enqueue, then let the scheduler run.
        poster.join(timeout=0.5)
        release.set()
        poster.join(timeout=30)
        status, ack = outcome["response"]
        assert status == 200
        assert ack["accepted"] == 1
        assert ack["sales_updates"] == 1
        assert service.stream.n_observed == 1
        assert service.stream._items[record.item_id].sales_volume == 7777

    def test_shed_request_applies_nothing(self, gated_served, feed):
        """With the queue completely full the request is shed whole:
        503, and neither the comments nor the sales update land."""
        service, request, started, release = gated_served
        self._occupy_scheduler(service, started)
        service.submit_feed([])
        service.submit_feed([])  # queue now at capacity (2)
        record = feed[0]
        status, payload = request(
            "POST",
            "/ingest",
            {
                "comments": [dataclasses.asdict(record)],
                "sales": [[record.item_id, 7777]],
            },
        )
        assert status == 503
        assert "error" in payload
        release.set()
        deadline = time.monotonic() + 10
        while service._batcher.stats()["queue_depth"] > 0:
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert service.stream.n_observed == 0
        assert service._n_sales_updates == 0


class TestDriftEndpoint:
    def test_unconfigured_is_404(self, served):
        __, client = served
        status, payload = client.request("GET", "/drift")
        assert status == 404
        assert "not configured" in payload["error"]

    def test_drift_report_and_gauges(self, trained_cats, feed):
        import http.client

        import numpy as np

        from repro.core.streaming import StreamingDetector
        from repro.mlops import DriftMonitor, ReferenceHistogram

        captured = []
        reference_stream = StreamingDetector(trained_cats, rescore_growth=1.0)
        reference_stream.feature_observer = (
            lambda X: captured.append(np.array(X))
        )
        reference_stream.observe_many(feed)
        monitor = DriftMonitor(
            ReferenceHistogram.from_matrix(np.vstack(captured))
        )
        service = DetectionService(
            trained_cats,
            rescore_growth=1.0,
            max_delay_ms=2,
            drift_monitor=monitor,
            model_info={"version": 4, "content_hash": "c" * 64},
        ).start()
        server = make_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            conn = http.client.HTTPConnection(
                "127.0.0.1", server.server_address[1], timeout=30
            )
            conn.request(
                "POST",
                "/ingest",
                body=json.dumps(
                    {"comments": [dataclasses.asdict(r) for r in feed]}
                ),
                headers={"Content-Type": "application/json"},
            )
            ingest_response = conn.getresponse()
            ingest_response.read()
            assert ingest_response.status == 200
            conn.request("GET", "/drift")
            response = conn.getresponse()
            payload = json.loads(response.read())
            conn.close()
            assert response.status == 200
            assert payload["n_live_rows"] > 0
            # Live traffic IS the reference traffic here: no drift.
            assert payload["max_psi"] == 0.0
            assert payload["model"]["version"] == 4
            gauges = server.telemetry.snapshot()["gauges"]
            assert gauges["drift_max_psi"] == 0.0
            assert gauges["drift_live_rows"] == payload["n_live_rows"]
        finally:
            server.shutdown()
            server.server_close()
            service.stop()
