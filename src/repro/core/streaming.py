"""Streaming detection: continuous monitoring of live comment feeds.

The deployed CATS (paper Section VI: "partially incorporated ... into
Taobao") does not score a frozen snapshot -- comments keep arriving, and
an item's fraud evidence accumulates over time.  :class:`StreamingDetector`
wraps a trained :class:`~repro.core.system.CATS` for that regime:

* :meth:`observe` ingests comment records one at a time (e.g. from a
  recurring crawl), buffering them per item;
* items are (re-)scored lazily when their buffered evidence grew enough
  since the last scoring (``rescore_growth`` controls how much), so a
  busy feed does not re-extract features on every comment;
* crossing the reporting threshold emits an :class:`Alert` exactly once
  per item; an item whose score later falls below the threshold is not
  un-reported (matching how takedown pipelines behave), but its latest
  score remains queryable.

The stage-1 rule filter applies at scoring time, so an item alerts only
once it has real sales/comment volume -- early sparse evidence cannot
trigger a report.

Incremental feature accumulation
--------------------------------

Each :class:`_ItemState` owns an
:class:`~repro.core.features.ItemAccumulator` holding the running sums
behind the item's Table II feature vector.  On rescore, only comments
that arrived since the last scoring go through segmentation and
sentiment (via :meth:`FeatureExtractor.comment_stats_many`); the
feature vector is then an O(1) :meth:`ItemAccumulator.to_vector` read.
This turns the lifetime cost of a long-lived item from O(n^2) in
comments observed (re-extracting the whole buffer at every rescore)
into O(n): each comment is analyzed exactly once, however often its
item is rescored.

Because batch extraction folds comments through the identical
accumulator in the identical order, the incremental vector is
*bit-identical* to ``FeatureExtractor.extract`` over the full buffer --
streaming scores equal batch scores exactly, not approximately.

One private routine scores every due item: :meth:`observe` (its one
item), :meth:`force_rescore` and :meth:`force_rescore_many` all go
through it, so the three cannot drift apart.  ``force_rescore`` and
``force_rescore_many`` therefore also respect ``min_comments_to_score``:
below the floor they return the item's latest probability without
scoring (and without emitting alerts).

Long-running feeds
------------------

Three mechanisms keep an unbounded feed from corrupting or exhausting a
long-running detector (they back the serving layer in
:mod:`repro.serving`):

* **Ingest dedupe** -- a recurring crawl re-fetches comment pages, so
  the same comment record arrives many times.  ``observe`` drops
  records already buffered for the item (keyed by the full record
  identity), so replays cannot inflate the ``sumCommentLength``-family
  features.
* **LRU eviction** -- ``max_tracked_items`` bounds the number of items
  with buffered state; the least-recently-observed item is evicted when
  the bound is exceeded (or explicitly via :meth:`evict`).  The
  already-alerted set is kept *separately* from the buffers, so an
  evicted item that reappears rebuilds its evidence from scratch but
  can never alert twice.
* **State export/restore** -- :meth:`export_state` captures every
  buffered record, accumulator sum and alert as a plain-Python
  structure; :meth:`restore_state` rebuilds a detector whose subsequent
  behaviour is bit-identical to one that never stopped.  The serving
  checkpoint layer (:mod:`repro.serving.checkpoint`) writes this
  structure as one JSON file; Python floats round-trip through JSON
  exactly, so no binary side file is needed.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, OrderedDict
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from repro.collector.records import CommentRecord
from repro.core.features import ItemAccumulator
from repro.core.system import CATS

#: Version tag for :meth:`StreamingDetector.export_state` payloads.
STATE_VERSION = 1


def shard_of(item_id: int, n_shards: int) -> int:
    """Stable partition of *item_id* across ``n_shards`` shard workers.

    ``hash`` of an int is the int itself (``PYTHONHASHSEED`` only
    perturbs str/bytes hashing), so the mapping is identical across
    processes, restarts and machines -- a requirement for checkpoints
    to stay valid and for replays to route records to the same shard.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    return hash(int(item_id)) % n_shards


def _check_model_stamp(recorded: dict, expected: dict) -> None:
    """Reject a snapshot pinned to a different model.

    Content hashes are authoritative when both sides carry one;
    otherwise registry versions are compared.  A stamp sharing neither
    field with the expectation is rejected outright -- the caller
    asked for model pinning, so an uncheckable stamp must not pass.
    """
    recorded_hash = recorded.get("content_hash")
    expected_hash = expected.get("content_hash")
    if recorded_hash is not None and expected_hash is not None:
        if recorded_hash != expected_hash:
            raise ValueError(
                f"checkpoint was written under model "
                f"{recorded_hash[:12]}... (version "
                f"{recorded.get('version')}), cannot restore under model "
                f"{expected_hash[:12]}... (version "
                f"{expected.get('version')}); replaying this state "
                f"against a different classifier would corrupt scores"
            )
        return
    recorded_version = recorded.get("version")
    expected_version = expected.get("version")
    if recorded_version is not None and expected_version is not None:
        if int(recorded_version) != int(expected_version):
            raise ValueError(
                f"checkpoint was written under model version "
                f"{recorded_version}, cannot restore under version "
                f"{expected_version}"
            )
        return
    raise ValueError(
        f"checkpoint carries model stamp {recorded!r} which shares no "
        f"comparable field with the serving model {expected!r}"
    )


@dataclass(frozen=True)
class Alert:
    """One item crossing the reporting threshold."""

    item_id: int
    fraud_probability: float
    n_comments: int
    triggered_by_comment_id: int


@dataclass
class _ItemState:
    """Mutable per-item tracking state."""

    sales_volume: int = 0
    comments: list[CommentRecord] = field(default_factory=list)
    #: Identities of buffered records (ingest dedupe).  Records are
    #: frozen dataclasses, so the set holds the buffered records
    #: themselves -- no extra copies.
    seen: set[CommentRecord] = field(default_factory=set)
    #: Running Table II sums over ``comments[:n_accumulated]``.
    accumulator: ItemAccumulator = field(default_factory=ItemAccumulator)
    #: How many buffered comments are already folded into the
    #: accumulator; the suffix beyond it is unseen by feature code.
    n_accumulated: int = 0
    last_scored_size: int = 0
    last_probability: float = 0.0


#: Comment-record fields, in order.  Every one is an int or a str, so
#: a plain dict of them equals ``dataclasses.asdict``, whose deep copy
#: made exporting a checkpoint's comments about 8x slower.
_RECORD_FIELDS = tuple(f.name for f in dataclasses.fields(CommentRecord))


class StreamingDetector:
    """Incremental fraud monitoring over a comment stream.

    Parameters
    ----------
    cats:
        A trained CATS system (detector fitted).
    rescore_growth:
        Re-score an item when its comment count grew by this factor
        since the last scoring (1.0 = every new comment; 1.25 = after
        25% growth).  Crossing checks always use the latest score.
    min_comments_to_score:
        Do not score items with fewer buffered comments (scores on 1-2
        comments are noise).
    max_tracked_items:
        Upper bound on items with buffered state; exceeding it evicts
        the least-recently-observed item.  ``None`` (the default) never
        evicts.  The alerted set survives eviction, so reappearing
        items cannot re-alert.
    columnar_store:
        Optional :class:`~repro.core.columnar.ColumnarCommentStore`
        sharing the analyzer's interner.  Every comment analysis the
        detector performs is appended to it (exactly once, at the
        moment the comment is folded into its item's accumulator), so
        the store accumulates the full analyzed history as flat arrays
        -- the serving layer persists it beside checkpoints and
        restarts rehydrate from it instead of re-segmenting.
    """

    def __init__(
        self,
        cats: CATS,
        rescore_growth: float = 1.25,
        min_comments_to_score: int = 3,
        max_tracked_items: int | None = None,
        columnar_store=None,
    ) -> None:
        if rescore_growth < 1.0:
            raise ValueError(
                f"rescore_growth must be >= 1.0, got {rescore_growth}"
            )
        if min_comments_to_score < 1:
            raise ValueError(
                "min_comments_to_score must be >= 1, got "
                f"{min_comments_to_score}"
            )
        if max_tracked_items is not None and max_tracked_items < 1:
            raise ValueError(
                "max_tracked_items must be >= 1 or None, got "
                f"{max_tracked_items}"
            )
        self.cats = cats
        self.rescore_growth = rescore_growth
        self.min_comments_to_score = min_comments_to_score
        self.max_tracked_items = max_tracked_items
        self.columnar_store = columnar_store
        #: Per-item state in least-recently-observed-first order.
        self._items: OrderedDict[int, _ItemState] = OrderedDict()
        self._alerts: list[Alert] = []
        #: Item ids that already alerted -- kept independently of the
        #: buffers so eviction cannot re-arm an item.
        self._alerted_ids: set[int] = set()
        #: Records delivered to :meth:`observe` (duplicates included):
        #: the detector's position in the upstream feed, used by the
        #: serving checkpoints to resume replay.
        self.n_observed: int = 0
        #: Records dropped by ingest dedupe.
        self.n_duplicates: int = 0
        #: Items dropped by eviction (explicit or LRU).
        self.n_evicted: int = 0
        #: Optional hook called with every feature matrix (or single
        #: row) the detector is about to score -- the drift monitor's
        #: tap into the scoring path.  Pure observation: exceptions are
        #: the observer's problem, and the hook is never part of
        #: exported state.
        self.feature_observer = None

    # -- ingestion -----------------------------------------------------

    def _touch(self, item_id: int) -> _ItemState:
        """State for *item_id*, created if absent, marked most-recent."""
        state = self._items.get(item_id)
        if state is None:
            state = _ItemState()
            self._items[item_id] = state
        else:
            self._items.move_to_end(item_id)
        return state

    def _enforce_bound(self) -> None:
        if self.max_tracked_items is None:
            return
        while len(self._items) > self.max_tracked_items:
            oldest = next(iter(self._items))
            self.evict(oldest)

    def update_sales(self, item_id: int, sales_volume: int) -> None:
        """Record an item's latest listed sales volume."""
        state = self._touch(item_id)
        state.sales_volume = max(state.sales_volume, sales_volume)
        self._enforce_bound()

    def observe(self, comment: CommentRecord) -> Alert | None:
        """Ingest one comment; returns an Alert if the item crosses.

        Each comment is one completed order, so sales volume advances
        with the buffer even when listing data lags.  A record already
        buffered for the item (an identical replay, e.g. from
        re-crawling the same comment page) is dropped without touching
        the feature sums.
        """
        self.n_observed += 1
        state = self._touch(comment.item_id)
        if comment in state.seen:
            self.n_duplicates += 1
            return None
        state.seen.add(comment)
        state.comments.append(comment)
        state.sales_volume = max(state.sales_volume, len(state.comments))
        self._enforce_bound()

        if len(state.comments) < self.min_comments_to_score:
            return None
        due = (
            state.last_scored_size == 0
            or len(state.comments)
            >= self.rescore_growth * state.last_scored_size
        )
        if not due:
            return None
        alerts = self._score_due([(comment.item_id, state)])
        return alerts[0] if alerts else None

    def observe_many(
        self, comments: list[CommentRecord]
    ) -> list[Alert]:
        """Ingest a batch (e.g. one crawl cycle); returns new alerts."""
        alerts = []
        for comment in comments:
            alert = self.observe(comment)
            if alert is not None:
                alerts.append(alert)
        return alerts

    # -- eviction ------------------------------------------------------------

    def evict(self, item_id: int) -> bool:
        """Drop an item's buffered state; returns True when present.

        The alert history and the alerted set are untouched: an evicted
        item that reappears starts accumulating evidence from scratch
        but can never emit a second alert.  Its latest probability is
        forgotten (queries fall back to 0.0).
        """
        state = self._items.pop(item_id, None)
        if state is None:
            return False
        self.n_evicted += 1
        return True

    # -- scoring -------------------------------------------------------------

    def _score_due(self, due: list[tuple[int, _ItemState]]) -> list[Alert]:
        """Score every ``(item_id, state)`` pair; returns new alerts.

        The one scoring path.  Every unanalyzed buffer suffix goes
        through one ``comment_stats_many`` call (one batched sentiment
        call; duplicates across items resolve in the shared cache), each
        item folds its own slice in buffer order -- bit-identical to
        folding item by item -- and the store receives the batch in one
        append.  Rule-passing rows share one ``predict_proba`` call;
        results commit in order, each alert triggered by its item's last
        buffered comment.
        """
        records: list[CommentRecord] = []
        spans: list[tuple[int, int]] = []
        for _, state in due:
            start = len(records)
            records.extend(state.comments[state.n_accumulated :])
            spans.append((start, len(records)))
        if records:
            stats_list = self.cats.feature_extractor.comment_stats_many(
                [comment.content for comment in records]
            )
            for (_, state), (start, end) in zip(due, spans):
                state.accumulator.add_many(stats_list[start:end])
                state.n_accumulated += end - start
            if self.columnar_store is not None:
                self.columnar_store.append(records, stats_list)

        rows = np.vstack([state.accumulator.to_vector() for _, state in due])
        if self.feature_observer is not None:
            self.feature_observer(rows)
        detector = self.cats.detector
        passing = [
            i
            for i, (_, state) in enumerate(due)
            if detector.rule_filter.passes(
                state.sales_volume, len(state.comments), rows[i]
            )
        ]
        probabilities = [0.0] * len(due)
        if passing:
            scored = detector.predict_proba(rows[passing])
            for i, probability in zip(passing, scored):
                probabilities[i] = float(probability)

        alerts = []
        threshold = detector.config.threshold
        for (item_id, state), probability in zip(due, probabilities):
            state.last_scored_size = len(state.comments)
            state.last_probability = probability
            if probability >= threshold and item_id not in self._alerted_ids:
                self._alerted_ids.add(item_id)
                alert = Alert(
                    item_id=item_id,
                    fraud_probability=probability,
                    n_comments=len(state.comments),
                    triggered_by_comment_id=state.comments[-1].comment_id,
                )
                self._alerts.append(alert)
                alerts.append(alert)
        return alerts

    def force_rescore(self, item_id: int) -> float:
        """Score an item immediately; returns its P(fraud).

        Items below ``min_comments_to_score`` are not scored (an empty
        or near-empty buffer carries no signal and must not alert);
        their latest probability -- 0.0 when never scored -- is
        returned unchanged.
        """
        state = self._items.get(item_id)
        if state is None:
            raise KeyError(f"unknown item {item_id}")
        if len(state.comments) >= self.min_comments_to_score:
            self._score_due([(item_id, state)])
        return state.last_probability

    def force_rescore_many(self, item_ids: Iterable[int]) -> dict[int, float]:
        """Score a batch of tracked items in one classifier call.

        All rule-passing items are stacked into a single feature matrix
        and sent through ``predict_proba`` together -- the classifier
        traverses its whole packed ensemble over the batch at once (see
        :mod:`repro.ml.inference`), so a batch of k items costs roughly
        one item's numpy overhead instead of k.
        The per-item results (probabilities, state updates, at-most-once
        alerts) are bit-identical to calling :meth:`force_rescore` per
        item in the same order -- the serving layer's micro-batching
        relies on this equivalence.

        Raises :class:`KeyError` on the first unknown item; no state is
        modified in that case.
        """
        unique_ids = list(dict.fromkeys(item_ids))
        missing = [i for i in unique_ids if i not in self._items]
        if missing:
            raise KeyError(f"unknown item {missing[0]}")
        floor = self.min_comments_to_score
        due = [
            (item_id, self._items[item_id])
            for item_id in unique_ids
            if len(self._items[item_id].comments) >= floor
        ]
        if due:
            self._score_due(due)
        return {
            item_id: self._items[item_id].last_probability
            for item_id in unique_ids
        }

    # -- state export / restore ---------------------------------------------

    def export_state(
        self,
        shard: tuple[int, int] | None = None,
        model: dict | None = None,
    ) -> dict:
        """Snapshot the full streaming state as plain Python data.

        The structure is JSON-compatible (Python floats round-trip
        exactly through ``json``), ordered least-recently-observed
        first, and sufficient for :meth:`restore_state` to rebuild a
        detector whose every subsequent score and alert is identical to
        this one's.

        ``shard`` -- an ``(index, count)`` pair -- stamps the snapshot
        with the partition it belongs to, so a sharded deployment
        cannot silently restore another shard's checkpoint (or a
        checkpoint taken under a different shard count, which would
        misroute every item whose hash moved).

        ``model`` -- an identity dict (``content_hash`` and/or
        ``version``) -- pins the snapshot to the classifier it was
        accumulated under; restoring it under a different model would
        replay buffered evidence against a classifier that never saw
        it, so :meth:`restore_state` fails loudly on a mismatch.
        """
        items = []
        for item_id, state in self._items.items():
            items.append(
                {
                    "item_id": item_id,
                    "sales_volume": state.sales_volume,
                    "comments": [
                        {name: getattr(c, name) for name in _RECORD_FIELDS}
                        for c in state.comments
                    ],
                    "n_accumulated": state.n_accumulated,
                    "last_scored_size": state.last_scored_size,
                    "last_probability": state.last_probability,
                    "accumulator": dict(
                        vars(state.accumulator),
                        word_counts=dict(state.accumulator.word_counts),
                    ),
                }
            )
        state = {
            "state_version": STATE_VERSION,
            "config": {
                "rescore_growth": self.rescore_growth,
                "min_comments_to_score": self.min_comments_to_score,
                "max_tracked_items": self.max_tracked_items,
            },
            "n_observed": self.n_observed,
            "n_duplicates": self.n_duplicates,
            "n_evicted": self.n_evicted,
            "alerted_ids": sorted(self._alerted_ids),
            "alerts": [dataclasses.asdict(a) for a in self._alerts],
            "items": items,
        }
        if shard is not None:
            index, count = shard
            state["shard"] = {
                "shard_index": int(index),
                "shard_count": int(count),
            }
        if model is not None:
            state["model"] = {
                key: model[key]
                for key in ("version", "content_hash", "source")
                if model.get(key) is not None
            }
        return state

    def restore_state(
        self,
        data: dict,
        expected_shard: tuple[int, int] | None = None,
        expected_model: dict | None = None,
    ) -> None:
        """Load a snapshot produced by :meth:`export_state`.

        Replaces any existing state.  The snapshot's policy settings
        (growth factor, floors, bound) override the constructor's, so a
        restored detector resumes under the checkpointed policy.

        ``expected_shard`` -- the restoring worker's ``(index, count)``
        -- rejects snapshots stamped for a different partition.  An
        unstamped (pre-sharding) snapshot is accepted only when every
        item in it actually routes to the expected shard.

        ``expected_model`` -- the restoring service's model identity --
        rejects snapshots stamped for a different model (by content
        hash when both sides have one, else by registry version), so a
        restart under a swapped classifier fails loudly instead of
        silently replaying state against the wrong model.  Unstamped
        (pre-lifecycle) snapshots are accepted.
        """
        if data.get("state_version") != STATE_VERSION:
            raise ValueError(
                f"unsupported streaming state version "
                f"{data.get('state_version')!r}"
            )
        if expected_model is not None:
            recorded = data.get("model")
            if recorded is not None:
                _check_model_stamp(recorded, expected_model)
        if expected_shard is not None:
            recorded = data.get("shard")
            if recorded is not None:
                stamp = (
                    int(recorded["shard_index"]),
                    int(recorded["shard_count"]),
                )
                if stamp != (int(expected_shard[0]), int(expected_shard[1])):
                    raise ValueError(
                        f"snapshot belongs to shard {stamp[0]}/{stamp[1]}, "
                        f"cannot restore into shard "
                        f"{expected_shard[0]}/{expected_shard[1]}"
                    )
            else:
                index, count = int(expected_shard[0]), int(expected_shard[1])
                for entry in data["items"]:
                    item_id = int(entry["item_id"])
                    if shard_of(item_id, count) != index:
                        raise ValueError(
                            f"unsharded snapshot contains item {item_id} "
                            f"which routes to shard "
                            f"{shard_of(item_id, count)}, not {index}"
                        )
        config = data["config"]
        self.rescore_growth = float(config["rescore_growth"])
        self.min_comments_to_score = int(config["min_comments_to_score"])
        bound = config.get("max_tracked_items")
        self.max_tracked_items = None if bound is None else int(bound)
        self.n_observed = int(data["n_observed"])
        self.n_duplicates = int(data.get("n_duplicates", 0))
        self.n_evicted = int(data.get("n_evicted", 0))
        self._alerted_ids = {int(i) for i in data["alerted_ids"]}
        self._alerts = [Alert(**a) for a in data["alerts"]]
        self._items = OrderedDict()
        for entry in data["items"]:
            comments = [CommentRecord(**c) for c in entry["comments"]]
            sums = entry["accumulator"]
            state = _ItemState(
                sales_volume=int(entry["sales_volume"]),
                comments=comments,
                seen=set(comments),
                accumulator=ItemAccumulator(
                    **dict(sums, word_counts=Counter(sums["word_counts"]))
                ),
                n_accumulated=int(entry["n_accumulated"]),
                last_scored_size=int(entry["last_scored_size"]),
                last_probability=float(entry["last_probability"]),
            )
            self._items[int(entry["item_id"])] = state

    @classmethod
    def from_state(cls, cats: CATS, data: dict) -> "StreamingDetector":
        """Build a detector directly from an exported snapshot."""
        detector = cls(cats)
        detector.restore_state(data)
        return detector

    # -- queries ---------------------------------------------------------------

    @property
    def alerts(self) -> list[Alert]:
        """All alerts emitted so far, in order."""
        return list(self._alerts)

    @property
    def n_items_tracked(self) -> int:
        """Number of items with buffered state."""
        return len(self._items)

    def has_alerted(self, item_id: int) -> bool:
        """True when *item_id* already alerted (survives eviction)."""
        return item_id in self._alerted_ids

    def is_tracked(self, item_id: int) -> bool:
        """True when *item_id* currently has buffered state."""
        return item_id in self._items

    def tracked_items(self) -> list[int]:
        """Item ids with buffered state, least-recently-observed first."""
        return list(self._items)

    def probability(self, item_id: int) -> float:
        """Latest scored P(fraud) for *item_id* (0.0 if never scored)."""
        state = self._items.get(item_id)
        return state.last_probability if state else 0.0

    def flagged_items(self) -> list[int]:
        """Item ids alerted so far."""
        return [alert.item_id for alert in self._alerts]
