"""The durability acceptance tests for the serving subsystem.

kill -9 the serving process mid-stream, restart it from the latest
checkpoint, replay the remainder of the feed, and assert the final
scores and alert set are identical to an uninterrupted run.  The
restarted server reports how far its checkpoint got via
``records_observed`` in ``/stats``; because the feed contains no
duplicates, that count is exactly the replay position.

A SIGTERM must always end in a drained queue, a final checkpoint and
exit code 0, even when it lands while connections keep arriving.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.core.persistence import load_cats, save_cats
from repro.core.streaming import StreamingDetector
from repro.serving.checkpoint import CheckpointManager

CHECKPOINT_EVERY = 40
CHUNK = 10


@pytest.fixture(scope="session")
def model_dir(trained_cats, tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("served-model")
    save_cats(trained_cats, directory)
    return directory


class ServerProcess:
    """A ``repro serve`` subprocess plus a tiny HTTP client for it."""

    def __init__(self, model_dir: Path, checkpoint_dir: Path) -> None:
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[2] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                str(model_dir),
                "--port",
                "0",
                "--checkpoint-dir",
                str(checkpoint_dir),
                "--checkpoint-every",
                str(CHECKPOINT_EVERY),
                "--rescore-growth",
                "1.0",
                "--max-batch",
                "16",
                "--max-delay-ms",
                "2",
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        announcement = json.loads(self.proc.stdout.readline())
        assert announcement["serving"] is True
        self.host = announcement["host"]
        self.port = announcement["port"]

    def request(self, method: str, path: str, body=None):
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
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

    def ingest(self, records) -> int:
        rows = [dataclasses.asdict(record) for record in records]
        status, ack = self.request("POST", "/ingest", {"comments": rows})
        assert status == 200, ack
        return ack["accepted"]

    def kill9(self) -> None:
        os.kill(self.proc.pid, signal.SIGKILL)
        self.proc.wait(timeout=30)

    def shutdown(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            self.proc.wait(timeout=30)


def has_checkpoint(checkpoint_dir: Path) -> bool:
    return checkpoint_dir.is_dir() and any(
        p.name.startswith("ckpt-") and not p.name.endswith(".tmp")
        for p in checkpoint_dir.iterdir()
    )


def test_kill9_restart_replay_is_identical(
    model_dir, feed, feed_item_ids, tmp_path
):
    checkpoint_dir = tmp_path / "ckpts"
    first = ServerProcess(model_dir, checkpoint_dir)
    acked = 0
    try:
        # Feed until at least one checkpoint landed and well over half
        # the stream is in -- then yank the power cord.
        kill_floor = int(len(feed) * 0.6)
        for start in range(0, len(feed), CHUNK):
            acked += first.ingest(feed[start : start + CHUNK])
            if acked >= kill_floor and has_checkpoint(checkpoint_dir):
                break
        assert acked < len(feed), "feed exhausted before the kill point"
        assert has_checkpoint(checkpoint_dir), (
            "no checkpoint written before the kill point"
        )
        first.kill9()
    finally:
        first.shutdown()

    second = ServerProcess(model_dir, checkpoint_dir)
    try:
        status, health = second.request("GET", "/healthz")
        assert status == 200
        assert health["restored_from"] is not None

        # The checkpoint is at most CHECKPOINT_EVERY records behind the
        # acknowledged stream; its position tells us where to replay from.
        status, stats = second.request("GET", "/stats")
        assert status == 200
        position = stats["records_observed"]
        assert 0 < position <= acked
        assert acked - position <= CHECKPOINT_EVERY + CHUNK

        for start in range(position, len(feed), CHUNK):
            second.ingest(feed[start : start + CHUNK])

        status, scored = second.request(
            "POST", "/score", {"item_ids": feed_item_ids}
        )
        assert status == 200
        status, alerts = second.request("GET", "/alerts")
        assert status == 200
    finally:
        second.shutdown()

    # Uninterrupted reference run over the same feed, same model files.
    reference = StreamingDetector(load_cats(model_dir), rescore_growth=1.0)
    reference.observe_many(feed)
    expected = reference.force_rescore_many(feed_item_ids)

    assert {
        int(item_id): probability
        for item_id, probability in scored["probabilities"].items()
    } == expected
    assert alerts["alerts"] == [
        dataclasses.asdict(a) for a in reference.alerts
    ]


def test_sigterm_during_connection_storm_drains_and_exits(
    model_dir, feed, tmp_path
):
    for attempt in range(3):
        checkpoint_dir = tmp_path / f"ckpts-{attempt}"
        server = ServerProcess(model_dir, checkpoint_dir)
        stop_storm = threading.Event()

        def storm() -> None:
            # A fresh connection per request, until the server is gone.
            while not stop_storm.is_set():
                try:
                    server.request("GET", "/healthz")
                except (OSError, http.client.HTTPException, ValueError):
                    return

        storm_threads = [
            threading.Thread(target=storm, daemon=True) for _ in range(4)
        ]
        try:
            # Fewer records than CHECKPOINT_EVERY: any checkpoint on
            # disk afterwards is the final one written by the drain.
            acked = sum(
                server.ingest(feed[start : start + CHUNK])
                for start in range(0, 3 * CHUNK, CHUNK)
            )
            assert not has_checkpoint(checkpoint_dir)
            for thread in storm_threads:
                thread.start()
            time.sleep(0.2 * (attempt + 1))
            server.proc.send_signal(signal.SIGTERM)
            code = server.proc.wait(timeout=10)
            stop_storm.set()
            for thread in storm_threads:
                thread.join(timeout=30)
        finally:
            stop_storm.set()
            if server.proc.poll() is None:
                server.kill9()
        assert code == 0
        assert not any(thread.is_alive() for thread in storm_threads)
        state, _ = CheckpointManager(checkpoint_dir).load_latest()
        assert state["n_observed"] == acked
