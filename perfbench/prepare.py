"""Artefacts the benchmark prepares outside every timed path.

Two levels, each built in a staging directory and published by rename:

* **base** (once per checkout and ``src/`` hash): the model archive with
  its drift reference (what ``cats train`` writes), a D1 snapshot (the
  *pool*) every seed samples from, and the serial reference feature
  matrix of the pool (``CATS.extract_features``).
* **seed** (once per seed and workload): the seed's D1 slice in
  ``cats crawl`` format with its labels and the model registry the
  retrain publishes into, the live-feed warm-restart state and feed, and
  each workload's reference outputs.

Run as ``python perfbench/prepare.py base|seed ...``; the benchmark
calls it in a child process so the orchestrator never holds the data.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import pickle
import shutil
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from common import (  # noqa: E402
    POOL_SEED,
    SIZES,
    base_dir,
    publish_dir,
    seed_dir,
    write_json,
)


def _language_and_config(size: str):
    """Synthetic language + system config of one sizing."""
    from repro.core.config import CATSConfig, LexiconConfig, Word2VecConfig
    from repro.datasets.builders import default_language
    from repro.ecommerce.language import SyntheticLanguage

    if size == "full":
        return default_language(), None
    language = SyntheticLanguage(
        n_positive=60, n_negative=60, n_neutral=220, n_function=40,
        n_variant_sources=10, n_topics=6, seed=42,
    )
    config = CATSConfig(
        lexicon=LexiconConfig(max_size=80, k_neighbors=8),
        word2vec=Word2VecConfig(dim=24, epochs=3, min_count=2),
    )
    return language, config


def probability_digest(probabilities: np.ndarray) -> str:
    """sha256 of the float64 bytes: equal digests mean equal bits."""
    data = np.ascontiguousarray(probabilities, dtype=np.float64)
    return hashlib.sha256(data.tobytes()).hexdigest()


# -- base ----------------------------------------------------------------------


def _train_model(size: str, model_dir: Path) -> None:
    """What ``cats train`` writes: the archive plus its drift reference."""
    from repro.core.persistence import save_cats
    from repro.core.pipeline import train_cats
    from repro.mlops import ReferenceHistogram

    language, config = _language_and_config(size)
    scale = SIZES[size]["model_scale"] or 0.01
    cats, d0 = train_cats(language, d0_scale=scale, config=config)
    save_cats(cats, model_dir)
    ReferenceHistogram.from_matrix(cats.extract_features(d0.items)).save(
        model_dir
    )


def _pool_records(size: str) -> dict:
    """The D1 snapshot as crawl records (what ``cats crawl`` stores)."""
    from repro.collector.records import CommentRecord, ItemRecord, ShopRecord
    from repro.ecommerce.generator import PlatformGenerator
    from repro.ecommerce.profiles import taobao_profile

    language, _ = _language_and_config(size)
    profile = taobao_profile().scaled(SIZES[size]["pool_scale"])
    platform = PlatformGenerator(profile, language, seed=POOL_SEED).generate()
    shops = [ShopRecord(s.shop_id, s.url, s.name) for s in platform.shops]
    items, comments, labels = [], [], []
    for item in platform.items:
        items.append(
            ItemRecord(
                item.item_id, item.shop_id, item.name, item.price,
                item.sales_volume,
            )
        )
        labels.append(1 if item.is_fraud else 0)
        for c in item.comments:
            user = platform.users[c.user_id]
            comments.append(
                CommentRecord(
                    item_id=c.item_id,
                    comment_id=c.comment_id,
                    content=c.content,
                    nickname=user.anonymized_nickname(),
                    user_exp_value=user.exp_value,
                    client=c.client.value,
                    date=c.date,
                )
            )
    return {
        "shops": shops, "items": items, "comments": comments,
        "labels": np.asarray(labels, dtype=np.int64),
    }


def build_base(size: str) -> Path:
    from repro.collector.storage import DatasetStore
    from repro.core.persistence import load_cats

    final = base_dir(size)
    if (final / "pool.pkl").exists():
        return final
    staging = final.with_name(final.name + f".tmp{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    _train_model(size, staging / "model")
    pool = _pool_records(size)
    store = DatasetStore(pool["shops"], pool["items"], pool["comments"])
    crawled = store.crawled_items()
    if len(crawled) != len(pool["items"]):
        raise RuntimeError("cleaning dropped pool items")
    # The model is loaded from its archive exactly as every workload
    # loads it, so the reference sees the same analyzer state.
    reference = load_cats(staging / "model")
    features = reference.extract_features(crawled)
    np.save(staging / "pool_features.npy", features)
    with open(staging / "pool.pkl", "wb") as fh:
        pickle.dump(
            {
                "shops": store.shops, "items": store.items,
                "comments": store.comments, "labels": pool["labels"],
            },
            fh,
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    publish_dir(staging, final)
    return final


# -- per seed ------------------------------------------------------------------


def _load_pool(base: Path) -> dict:
    with open(base / "pool.pkl", "rb") as fh:
        pool = pickle.load(fh)
    by_item: dict[int, list] = {item.item_id: [] for item in pool["items"]}
    for comment in pool["comments"]:
        by_item[comment.item_id].append(comment)
    pool["by_item"] = by_item
    return pool


def slice_indices(size: str, n_pool: int, seed: int) -> np.ndarray:
    """The seed's D1 slice: pool item positions, in crawl order."""
    sizing = SIZES[size]
    n_slice = round(n_pool * sizing["slice_scale"] / sizing["pool_scale"])
    rng = np.random.default_rng([seed, 1])
    return np.sort(rng.choice(n_pool, size=n_slice, replace=False))


def _prepare_d1_batch(base, pool, idx, out: Path) -> None:
    """The slice in crawl format, its labels, the registry, references.

    References: the serial ``extract_features`` + ``detect_with_features``
    report of the slice, and a retrain (5-fold CV, fit, score) on the
    slice's serial feature matrix.
    """
    from repro.collector.records import CrawledItem
    from repro.collector.storage import DatasetStore
    from repro.core.persistence import load_cats
    from repro.mlops import ModelRegistry

    items = [pool["items"][i] for i in idx]
    shop_ids = {item.shop_id for item in items}
    comments = [c for item in items for c in pool["by_item"][item.item_id]]
    DatasetStore(
        [s for s in pool["shops"] if s.shop_id in shop_ids], items, comments
    ).save(out / "data")
    labels = pool["labels"][idx]
    np.save(out / "labels.npy", labels)
    registry = ModelRegistry(out / "registry")
    registry.promote(
        registry.register_artifact(base / "model", note="deployed").version
    )
    crawled = [
        CrawledItem(item=item, comments=pool["by_item"][item.item_id])
        for item in items
    ]
    features = np.load(base / "pool_features.npy")[idx]
    cats = load_cats(base / "model")
    report = cats.detect_with_features(crawled, features)
    cv = cats.cross_validate_detector(features, labels, n_splits=5)
    cats.fit_features(features, labels)
    write_json(
        out / "reference.json",
        {
            "n_items": len(items),
            "n_comments": len(comments),
            "reported_ids": [
                int(items[i].item_id) for i in report.reported_indices()
            ],
            "probability_digest": probability_digest(
                report.fraud_probability
            ),
            "retrain": {
                "cv": cv,
                "features_digest": probability_digest(features),
                "probability_digest": probability_digest(
                    cats.detector.predict_proba(features)
                ),
            },
        },
    )


def _comment_row(c) -> dict:
    """A comment in the ``/ingest`` wire format (the paper's Listing 2)."""
    return {
        "item_id": c.item_id,
        "comment_id": c.comment_id,
        "comment_content": c.content,
        "nickname": c.nickname,
        "userExpValue": c.user_exp_value,
        "client_information": c.client,
        "date": c.date,
    }


#: Largest page a crawler fetch returns for one item.
PAGE_COMMENTS = 20
#: Share of pages that are re-crawled verbatim later in the feed.
RECRAWL_RATE = 0.10


def _pages(item, comments) -> list[dict]:
    return [
        {
            "comments": [_comment_row(c) for c in comments[i : i + PAGE_COMMENTS]],
            "sales": [[item.item_id, item.sales_volume]],
        }
        for i in range(0, len(comments), PAGE_COMMENTS)
    ]


def _interleave(queues: list[list[dict]], rng) -> list[dict]:
    """Merge per-item page queues in a seeded order, each kept in order."""
    queues = [list(q) for q in queues if q]
    out: list[dict] = []
    while queues:
        k = int(rng.integers(len(queues)))
        out.append(queues[k].pop(0))
        if not queues[k]:
            queues.pop(k)
    return out


def build_feed(size: str, pool: dict, seed: int, seconds: int) -> dict:
    """History pages, the live feed and the lookup schedule of a seed.

    Crawler throughput is comments per second at a near-fixed page
    latency, so it tracks the feed's mean page size.  Feeds are redrawn
    until that mean is within 1% of the sizing's ``page_mean``, so seeds
    differ in content but not in the amount of work per page.
    """
    target = SIZES[size]["page_mean"]
    for attempt in range(1000):
        rng = np.random.default_rng([seed, 2, attempt])
        feed = _draw_feed(size, pool, rng, seconds)
        sizes = [len(page["comments"]) for page in feed["feed"]]
        if target is None or abs(np.mean(sizes) / target - 1.0) <= 0.01:
            return feed
    raise RuntimeError(f"no feed with mean page size {target} for seed {seed}")


def _draw_feed(size: str, pool: dict, rng, seconds: int) -> dict:
    sizing = SIZES[size]
    order = rng.permutation(len(pool["items"]))
    items = [pool["items"][i] for i in order]
    history, continuing, cursor, n_history = [], [], 0, 0
    while n_history < sizing["history_records"]:
        item = items[cursor]
        cursor += 1
        comments = pool["by_item"][item.item_id]
        if not comments:
            continue
        if len(comments) >= 8 and rng.random() < 0.3:
            half = len(comments) // 2
            history.append(_pages(item, comments[:half]))
            continuing.append((item, comments[half:]))
            n_history += half
        else:
            history.append(_pages(item, comments))
            n_history += len(comments)
    n_pages = sizing["pages_per_s"] * seconds
    queues = [_pages(item, rest) for item, rest in continuing]
    while sum(len(q) for q in queues) < n_pages:
        item = items[cursor]
        cursor += 1
        comments = pool["by_item"][item.item_id]
        if comments:
            queues.append(_pages(item, comments))
    feed: list[dict] = []
    for page in _interleave(queues, rng):
        if len(feed) < n_pages:
            feed.append(page)
        if len(feed) < n_pages and rng.random() < RECRAWL_RATE:
            feed.append(feed[int(rng.integers(len(feed)))])
    scoreable = [item.item_id for item, _ in continuing]
    if len(scoreable) < 4:
        raise RuntimeError("history too small for lookups")
    n_lookups = sizing["lookups_per_s"] * seconds
    lookups = [
        [int(i) for i in rng.choice(scoreable, size=4, replace=False)]
        for _ in range(n_lookups)
    ]
    return {
        "history": _interleave(history, rng),
        "feed": feed,
        "lookups": lookups,
        "lookup_interval_s": 1.0 / sizing["lookups_per_s"],
    }


def _records(page: dict):
    from repro.collector.records import CommentRecord

    return [CommentRecord.from_row(row) for row in page["comments"]]


def _prepare_live_feed(size, base, pool, seed, seconds, out: Path) -> None:
    """Warm-restart state (checkpoint + columnar store) and references."""
    from repro.core.columnar import ColumnarCommentStore
    from repro.core.persistence import load_cats
    from repro.core.streaming import StreamingDetector
    from repro.serving import DetectionService
    from repro.serving.checkpoint import CheckpointManager

    feed = build_feed(size, pool, seed, seconds)
    model_dir = str(base / "model")
    cats = load_cats(model_dir)
    store = ColumnarCommentStore(
        cats.analyzer.interner,
        analyzer_hash=cats.archive_info["analyzer_hash"],
    )
    store.directory = out / "state" / "store"
    # Fast batching here: only the resulting state matters.
    service = DetectionService(
        cats,
        max_batch=256,
        max_delay_ms=1.0,
        queue_depth=len(feed["history"]) + 1,
        checkpoint_dir=str(out / "state" / "ckpts"),
        columnar_store=store,
    )
    service.start()
    futures = [
        service.submit_feed(_records(page), page["sales"])
        for page in feed["history"]
    ]
    for future in futures:
        future.result()
    if not service.stop():
        raise RuntimeError("history service did not stop cleanly")

    state, _ = CheckpointManager(out / "state" / "ckpts").load_latest()
    reference = StreamingDetector(load_cats(model_dir))
    reference.restore_state(state)
    fed: dict[int, None] = {}
    for page in feed["feed"]:
        for item_id, volume in page["sales"]:
            reference.update_sales(int(item_id), int(volume))
        records = _records(page)
        reference.observe_many(records)
        fed.update((r.item_id, None) for r in records)
    probabilities = reference.force_rescore_many(list(fed))
    threshold = reference.cats.detector.config.threshold
    write_json(out / "feed.json", feed)
    write_json(
        out / "reference.json",
        {
            "fed_items": list(fed),
            "probabilities": {str(k): v for k, v in probabilities.items()},
            "threshold": threshold,
            "must_alert": [k for k, v in probabilities.items() if v >= threshold],
        },
    )


def prepare_seed(size: str, workload: str, seed: int, seconds: int) -> Path:
    final = seed_dir(size, workload, seed, seconds)
    if (final / "reference.json").exists():
        return final
    base = build_base(size)
    staging = final.with_name(final.name + f".tmp{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    pool = _load_pool(base)
    if workload == "live_feed":
        _prepare_live_feed(size, base, pool, seed, seconds, staging)
    else:
        idx = slice_indices(size, len(pool["items"]), seed)
        _prepare_d1_batch(base, pool, idx, staging)
    publish_dir(staging, final)
    return final


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("level", choices=["base", "seed"])
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.level == "base":
        print(build_base(args.size))
    else:
        print(prepare_seed(args.size, args.workload, args.seed, args.seconds))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
