"""Shadow scoring: run a challenger model on live traffic, log where it
disagrees with the serving champion, never affect alerts.

Promotion needs evidence.  The shadow scorer gives a challenger model
exactly the champion's live traffic -- the same comment records, the
same sales updates, the same score requests, in the same order (both
run on the service's single scheduler thread) -- while guaranteeing the
champion's outputs are untouched:

* the challenger gets its **own** :class:`StreamingDetector`, so its
  running sums, rescore cadence and alert ledger are fully isolated;
  its alerts stay inside the shadow and are only *counted*;
* when the challenger's analyzer is bit-identical to the champion's
  (same in-memory object, or equal ``analyzer_hash`` in both archive
  manifests -- the common retrain-the-detector case), the challenger
  shares the champion's feature extractor, so per-comment analysis is
  paid once and shadow overhead is two classifier calls, not two full
  pipelines;
* every score request is mirrored: after the champion's batch scores,
  the shadow scores the same item ids and folds the deltas into
  **bounded** counters (a fixed-edge score-delta histogram, a
  flipped-verdict count) plus a size-bounded rotating on-disk
  disagreement log -- a pathological challenger can grow neither disk
  nor ``/stats``;
* shadow failures are isolated by the caller
  (:class:`~repro.serving.service.DetectionService` wraps every shadow
  call): a crashing challenger increments ``shadow_errors`` and the
  champion keeps serving.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any

from repro.collector.records import CommentRecord
from repro.core.streaming import StreamingDetector
from repro.core.system import CATS

#: Fixed |score delta| histogram edges -- bounded telemetry cardinality.
DELTA_EDGES = (0.01, 0.05, 0.1, 0.2, 0.5)

#: Bucket labels, aligned with :data:`DELTA_EDGES` (one extra overflow).
DELTA_LABELS = tuple(
    [f"le_{edge}" for edge in DELTA_EDGES] + [f"gt_{DELTA_EDGES[-1]}"]
)

#: Default cap on entries per disagreement-log file.
DEFAULT_LOG_ENTRIES = 1000


def delta_bucket(delta: float) -> str:
    """The :data:`DELTA_LABELS` bucket for an absolute score delta."""
    for edge, label in zip(DELTA_EDGES, DELTA_LABELS):
        if delta <= edge:
            return label
    return DELTA_LABELS[-1]


class DisagreementLog:
    """Size-bounded on-disk JSONL log with single-file rotation.

    At most ``max_entries`` lines live in the active file; when full,
    it is rotated to ``<path>.1`` (replacing the previous rotation), so
    disk use is bounded by two files regardless of how noisy the
    challenger is.  Lines are appended from the service's scheduler
    thread only, so no locking is needed.
    """

    def __init__(
        self, path: str | Path, max_entries: int = DEFAULT_LOG_ENTRIES
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.path = Path(path)
        self.max_entries = max_entries
        self.n_written = 0
        self.n_rotations = 0
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = self.path.open("a", encoding="utf-8")
        # Resuming over an existing log keeps the bound exact.
        self._entries_in_file = self._count_lines(self.path)

    @staticmethod
    def _count_lines(path: Path) -> int:
        try:
            with path.open("r", encoding="utf-8") as handle:
                return sum(1 for _ in handle)
        except OSError:
            return 0

    @property
    def rotated_path(self) -> Path:
        return self.path.with_name(self.path.name + ".1")

    def append(self, record: dict[str, Any]) -> None:
        if self._entries_in_file >= self.max_entries:
            self._rotate()
        self._handle.write(json.dumps(record, ensure_ascii=False) + "\n")
        self._handle.flush()
        self._entries_in_file += 1
        self.n_written += 1

    def _rotate(self) -> None:
        self._handle.close()
        os.replace(self.path, self.rotated_path)
        self._handle = self.path.open("a", encoding="utf-8")
        self._entries_in_file = 0
        self.n_rotations += 1

    def entries(self) -> list[dict[str, Any]]:
        """Every retained entry, oldest first (rotated file included)."""
        out: list[dict[str, Any]] = []
        for path in (self.rotated_path, self.path):
            if path.exists():
                with path.open("r", encoding="utf-8") as handle:
                    out.extend(json.loads(line) for line in handle if line.strip())
        return out

    def close(self) -> None:
        self._handle.close()


def _analyzers_compatible(champion: CATS, challenger: CATS) -> bool:
    """True when both systems analyze comments bit-identically."""
    if challenger.analyzer is champion.analyzer:
        return True
    champ_hash = (champion.archive_info or {}).get("analyzer_hash")
    chall_hash = (challenger.archive_info or {}).get("analyzer_hash")
    return champ_hash is not None and champ_hash == chall_hash


class ShadowScorer:
    """Mirror live traffic into a challenger model; count disagreements.

    Parameters
    ----------
    champion, challenger:
        The serving model and the candidate replacing it.
    info:
        Challenger identity (registry version / content hash) surfaced
        in :meth:`stats`.
    log_path:
        Disagreement-log JSONL file (None disables the on-disk log).
    max_log_entries:
        Per-file entry bound for the rotating log.
    log_delta:
        Log an entry when |champion - challenger| reaches this, even
        without a verdict flip (flips are always logged).
    rescore_growth, min_comments_to_score, max_tracked_items:
        Challenger streaming policy; pass the champion service's values
        so both models score on the same cadence.
    """

    def __init__(
        self,
        champion: CATS,
        challenger: CATS,
        *,
        info: dict[str, Any] | None = None,
        log_path: str | Path | None = None,
        max_log_entries: int = DEFAULT_LOG_ENTRIES,
        log_delta: float = 0.25,
        rescore_growth: float = 1.25,
        min_comments_to_score: int = 3,
        max_tracked_items: int | None = None,
    ) -> None:
        self.challenger = challenger
        self.info = dict(info or {})
        self.log_delta = float(log_delta)
        #: Each model flags by its own configured threshold; a flip is
        #: "one would alert, the other would not".
        self.champion_threshold = champion.detector.config.threshold
        self.challenger_threshold = challenger.detector.config.threshold
        self.analysis_shared = _analyzers_compatible(champion, challenger)
        if self.analysis_shared:
            # Identical analyzers -> identical per-comment stats; the
            # challenger rides the champion's extractor (and its
            # analysis cache), so shadow mode pays the comment-analysis
            # pipeline once instead of twice.
            challenger.feature_extractor = champion.feature_extractor
        self.stream = StreamingDetector(
            challenger,
            rescore_growth=rescore_growth,
            min_comments_to_score=min_comments_to_score,
            max_tracked_items=max_tracked_items,
        )
        self.log = (
            DisagreementLog(log_path, max_entries=max_log_entries)
            if log_path is not None
            else None
        )
        self.n_scored = 0
        self.n_flipped = 0
        self.n_untracked = 0
        #: Tracked items skipped because the two buffers differ.
        self.n_partial = 0
        self.sum_abs_delta = 0.0
        self.max_abs_delta = 0.0
        self.delta_histogram = {label: 0 for label in DELTA_LABELS}

    # -- traffic mirroring (scheduler thread only) ---------------------------

    def observe_feed(
        self,
        comments: list[CommentRecord],
        sales: list[tuple[int, int]] = (),
    ) -> None:
        """Mirror one applied feed request (sales first, like the
        champion's ``_do_feed``); shadow alerts are swallowed."""
        for item_id, volume in sales:
            self.stream.update_sales(int(item_id), int(volume))
        self.stream.observe_many(list(comments))

    def compare(
        self,
        champion_results: dict[int, float],
        champion: StreamingDetector,
    ) -> None:
        """Score the champion's just-scored items on the challenger.

        Only items both sides score on the same evidence are compared.
        Items the shadow does not track (e.g. the champion restored
        them from a checkpoint predating the shadow) are skipped and
        counted, and so are items whose shadow buffer holds a different
        number of comments than *champion*'s (a restored item that got
        new comments after the restart: the shadow saw only those).
        Every delta lands in the bounded histogram; verdict flips and
        large deltas additionally go to the rotating log.
        """
        tracked = []
        for item_id in champion_results:
            if not self.stream.is_tracked(item_id):
                self.n_untracked += 1
            elif self.stream.n_buffered(item_id) != champion.n_buffered(
                item_id
            ):
                self.n_partial += 1
            else:
                tracked.append(item_id)
        if not tracked:
            return
        shadow_results = self.stream.force_rescore_many(tracked)
        for item_id in tracked:
            champion_p = float(champion_results[item_id])
            challenger_p = float(shadow_results[item_id])
            delta = abs(champion_p - challenger_p)
            self.n_scored += 1
            self.sum_abs_delta += delta
            self.max_abs_delta = max(self.max_abs_delta, delta)
            self.delta_histogram[delta_bucket(delta)] += 1
            flipped = (champion_p >= self.champion_threshold) != (
                challenger_p >= self.challenger_threshold
            )
            if flipped:
                self.n_flipped += 1
            if self.log is not None and (flipped or delta >= self.log_delta):
                self.log.append(
                    {
                        "item_id": int(item_id),
                        "champion": champion_p,
                        "challenger": challenger_p,
                        "delta": delta,
                        "flipped": flipped,
                    }
                )

    # -- reporting -----------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Bounded-cardinality counters for the ``/stats`` payload."""
        stats: dict[str, Any] = {
            "model": self.info,
            "analysis_shared": self.analysis_shared,
            "items_tracked": self.stream.n_items_tracked,
            "records_observed": self.stream.n_observed,
            "scored": self.n_scored,
            "untracked_skips": self.n_untracked,
            "partial_history_skips": self.n_partial,
            "flipped_verdicts": self.n_flipped,
            "alerts": len(self.stream.alerts),
            "mean_abs_delta": (
                round(self.sum_abs_delta / self.n_scored, 6)
                if self.n_scored
                else 0.0
            ),
            "max_abs_delta": round(self.max_abs_delta, 6),
            "delta_histogram": dict(self.delta_histogram),
        }
        if self.log is not None:
            stats["log_entries_written"] = self.log.n_written
            stats["log_rotations"] = self.log.n_rotations
        return stats

    def close(self) -> None:
        if self.log is not None:
            self.log.close()
