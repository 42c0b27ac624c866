"""Tests for repro.collector.storage."""

import dataclasses
import json

import pytest

from repro.collector.crawler import Crawler
from repro.collector.records import (
    CommentRecord,
    ItemRecord,
    RecordParseError,
    ShopRecord,
)
from repro.collector.storage import DatasetStore
from repro.ecommerce.website import PlatformWebsite


def make_records():
    shops = [ShopRecord(1, "u1", "s1"), ShopRecord(1, "u1", "s1")]
    items = [
        ItemRecord(10, 1, "a", 5.0, 12),
        ItemRecord(11, 1, "b", 6.0, 3),
    ]
    comments = [
        CommentRecord(10, 100, "hi", "a***b", 200, "web", "2017-09-10"),
        CommentRecord(10, 100, "hi", "a***b", 200, "web", "2017-09-10"),
        CommentRecord(99, 101, "dangling", "c***d", 300, "web", "2017-09-10"),
    ]
    return shops, items, comments


class TestConstruction:
    def test_cleaning_applied(self):
        shops, items, comments = make_records()
        store = DatasetStore(shops=shops, items=items, comments=comments)
        assert len(store.shops) == 1
        assert len(store.items) == 2
        # Duplicate and dangling comments removed.
        assert len(store.comments) == 1

    def test_empty_store(self):
        store = DatasetStore()
        assert store.summary() == {"shops": 0, "items": 0, "comments": 0}

    def test_from_crawl(self, taobao_platform):
        site = PlatformWebsite(
            taobao_platform, failure_rate=0.0, duplicate_rate=0.1, seed=0
        )
        store = DatasetStore.from_crawl(Crawler(site).crawl())
        # After cleaning, comment count matches the platform exactly.
        assert store.summary()["comments"] == taobao_platform.n_comments


class TestAssembly:
    def test_crawled_items_bundle_comments(self):
        shops, items, comments = make_records()
        store = DatasetStore(shops=shops, items=items, comments=comments)
        crawled = store.crawled_items()
        by_id = {c.item_id: c for c in crawled}
        assert len(by_id[10].comments) == 1
        assert by_id[11].comments == []

    def test_bundle_count_matches_items(self):
        shops, items, comments = make_records()
        store = DatasetStore(shops=shops, items=items, comments=comments)
        assert len(store.crawled_items()) == len(store.items)


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        shops, items, comments = make_records()
        store = DatasetStore(shops=shops, items=items, comments=comments)
        store.save(tmp_path / "crawl")
        loaded = DatasetStore.load(tmp_path / "crawl")
        assert loaded.summary() == store.summary()
        assert loaded.comments == store.comments

    def test_load_missing_directory_gives_empty(self, tmp_path):
        loaded = DatasetStore.load(tmp_path / "nope")
        assert loaded.summary() == {"shops": 0, "items": 0, "comments": 0}

    def test_files_written(self, tmp_path):
        shops, items, comments = make_records()
        DatasetStore(shops, items, comments).save(tmp_path / "d")
        for name in ("shops", "items", "comments"):
            assert (tmp_path / "d" / f"{name}.jsonl").exists()


class TestLoneSurrogates:
    """Text that cannot be written as UTF-8 is refused at load, naming
    the file and line; text that merely looks like an escape loads."""

    def save_with_extra_comment(self, directory, content: str) -> None:
        shops, items, comments = make_records()
        DatasetStore(shops, items, comments).save(directory)
        extra = dataclasses.replace(
            comments[0], comment_id=102, content=content
        )
        path = directory / "comments.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            # ensure_ascii escapes every non-ASCII character as \uXXXX,
            # as an outside writer might.
            fh.write(json.dumps(dataclasses.asdict(extra)) + "\n")

    @pytest.mark.parametrize("content", ["hi \ud83d", "\udc00 hi"])
    def test_lone_surrogate_rejected(self, tmp_path, content):
        self.save_with_extra_comment(tmp_path / "d", content)
        with pytest.raises(RecordParseError, match=r"comments\.jsonl:2:"):
            DatasetStore.load(tmp_path / "d")

    @pytest.mark.parametrize(
        "content", ["emoji \U0001f600", "a literal \\ud83d", "plain"]
    )
    def test_lookalikes_load(self, tmp_path, content):
        self.save_with_extra_comment(tmp_path / "d", content)
        loaded = DatasetStore.load(tmp_path / "d")
        assert loaded.comments[-1].content == content
