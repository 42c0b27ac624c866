"""End-to-end model lifecycle.

The acceptance scenario for the mlops subsystem, in one place:
train v1 -> register + promote -> serve it (recording traffic, drift
monitored) -> train v2 -> shadow-score v2 on live traffic -> replay the
recording under both -> promote v2 -> restart serving on the new
champion.  Along the way: champion scores with the shadow on are
bit-identical to a shadow-off run, drift PSI stays ~0 on unshifted
traffic and exceeds 0.2 on injected shift, and a checkpoint written
under v1 refuses to restore under v2.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.collector.records import CommentRecord
from repro.core.streaming import StreamingDetector
from repro.mlops import (
    DriftMonitor,
    ModelRegistry,
    ReferenceHistogram,
    ShadowScorer,
    TrafficRecorder,
    compare_recording,
    replay_recording,
)
from repro.serving import DetectionService


def _live_reference(cats, feed, item_ids) -> ReferenceHistogram:
    """Reference histogram over exactly the vectors a serve of *feed*
    would observe (same cadence: growth 1.0 + one final rescore)."""
    captured: list[np.ndarray] = []
    stream = StreamingDetector(cats, rescore_growth=1.0)
    stream.feature_observer = lambda X: captured.append(np.array(X))
    stream.observe_many(feed)
    stream.force_rescore_many(item_ids)
    return ReferenceHistogram.from_matrix(np.vstack(captured))


def _shifted_comments(feed, n_items=15, per_item=4) -> list[CommentRecord]:
    """Pathological traffic: same vocabulary, wildly longer comments."""
    shifted = []
    for k in range(n_items * per_item):
        source = feed[k % len(feed)]
        shifted.append(
            dataclasses.replace(
                source,
                item_id=900_000 + k % n_items,
                comment_id=10_000_000 + k,
                content=(source.content + " ") * 10,
            )
        )
    return shifted


def test_full_lifecycle(
    tmp_path, trained_cats, challenger_cats, feed, feed_item_ids
):
    registry = ModelRegistry(tmp_path / "registry")
    recording = tmp_path / "traffic.jsonl"
    checkpoint_dir = tmp_path / "checkpoints"

    # --- v1: register and promote --------------------------------------
    v1 = registry.register(trained_cats, note="initial")
    registry.promote(v1.version)
    champion, entry = registry.load_champion()
    assert entry.version == 1

    # --- baseline: shadow-off serve of the same feed -------------------
    baseline = DetectionService(
        trained_cats, rescore_growth=1.0, max_delay_ms=2
    ).start()
    try:
        baseline.feed(feed)
        baseline_scores = baseline.score(feed_item_ids)
        baseline_alerts = baseline.alerts()
    finally:
        baseline.stop()

    # --- serve v1: record traffic, monitor drift, shadow v2 ------------
    reference = _live_reference(trained_cats, feed, feed_item_ids)
    reference.save(entry.artifact_dir)
    v2 = registry.register(challenger_cats, parent=1, note="retrained")
    shadow = ShadowScorer(
        champion,
        registry.load_version(v2.version),
        info=registry.model_info(v2.version),
        rescore_growth=1.0,
    )
    service = DetectionService(
        champion,
        rescore_growth=1.0,
        max_delay_ms=2,
        model_info=registry.model_info(1),
        drift_monitor=DriftMonitor(ReferenceHistogram.load(entry.artifact_dir)),
        recorder=TrafficRecorder(recording),
        shadow=shadow,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=100,
    ).start()
    try:
        service.feed(feed)
        live_scores = service.score(feed_item_ids)

        # Champion outputs are untouched by shadow/drift/recording.
        assert live_scores == baseline_scores
        assert service.alerts() == baseline_alerts

        # Model identity is served and stamped.
        health = service.healthz()
        assert health["model"]["version"] == 1
        assert health["model"]["content_hash"] == entry.content_hash

        # Un-shifted traffic: the live vectors match the reference.
        drift = service.drift_report()
        assert drift["n_live_rows"] > 0
        assert drift["max_psi"] < 0.05
        assert drift["model"]["version"] == 1

        # Injected shift: reset the window, feed pathological traffic.
        service.drift_monitor.reset()
        service.feed(_shifted_comments(feed))
        assert service.drift_report()["max_psi"] > 0.2
    finally:
        assert service.stop()

    # Shadow/recorder counters are read after the drain (the shadow
    # compares off the champion's response path).
    stats = service.stats()
    assert stats["model"]["version"] == 1
    assert stats["shadow"]["model"]["version"] == 2
    assert stats["shadow"]["scored"] == len(feed_item_ids)
    assert stats["shadow_errors"] == 0
    assert stats["events_recorded"] > 0
    assert stats["checkpoints_written"] >= 1

    # --- offline: replay the recording under both versions -------------
    replayed = replay_recording(
        registry.load_version(1), recording, rescore_growth=1.0
    )
    for item_id, probability in baseline_scores.items():
        assert replayed.probabilities[item_id] == probability
    report = compare_recording(
        registry.load_version(1),
        registry.load_version(2),
        recording,
        rescore_growth=1.0,
        champion_info=registry.model_info(1),
        challenger_info=registry.model_info(2),
    )
    assert report["comparison"]["n_items"] >= len(feed_item_ids)

    # --- promote v2; the v1 checkpoint must not restore under it -------
    registry.promote(2)
    new_champion, new_entry = registry.load_champion()
    assert new_entry.version == 2
    with pytest.raises(ValueError, match="cannot restore under"):
        DetectionService(
            new_champion,
            model_info=registry.model_info(2),
            checkpoint_dir=checkpoint_dir,
        )

    # --- restart on the new champion with a fresh lineage --------------
    restarted = DetectionService(
        new_champion,
        rescore_growth=1.0,
        max_delay_ms=2,
        model_info=registry.model_info(2),
        checkpoint_dir=tmp_path / "checkpoints-v2",
    ).start()
    try:
        restarted.feed(feed)
        restarted_scores = restarted.score(feed_item_ids)
        assert restarted.healthz()["model"]["version"] == 2
    finally:
        restarted.stop()

    # The restarted champion is exactly what the shadow predicted.
    shadow_replay = replay_recording(
        registry.load_version(2), recording, rescore_growth=1.0
    )
    for item_id, probability in restarted_scores.items():
        assert shadow_replay.probabilities[item_id] == probability
