"""Dataset store for crawl output.

Holds cleaned shop/item/comment records, assembles per-item
:class:`~repro.collector.records.CrawledItem` bundles (the detector's
input unit), and round-trips to JSONL on disk so a long crawl can be
checkpointed and reloaded -- the paper's crawl ran for a week across
three servers, so persistence is part of the substrate.
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path

import json
import re

from repro.collector.cleaning import clean_comments, clean_items, clean_shops
from repro.core.persistence import write_jsonl_atomic
from repro.collector.crawler import CrawlResult
from repro.collector.records import (
    CommentRecord,
    CrawledItem,
    ItemRecord,
    RecordParseError,
    ShopRecord,
)

#: A JSON escape of a UTF-16 surrogate (``\uD800``-``\uDFFF``).
_SURROGATE_ESCAPE = re.compile(rb"\\u[dD][89a-fA-F]")


def _check_utf8(file_path: Path) -> None:
    """Raise :class:`RecordParseError` at the first line holding a lone
    surrogate.  The writer encodes strictly, so only an escape can carry
    one in; one regex pass clears the common case."""
    if _SURROGATE_ESCAPE.search(file_path.read_bytes()) is None:
        return
    with open(file_path, encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            try:
                json.dumps(json.loads(line), ensure_ascii=False).encode()
            except UnicodeEncodeError as exc:
                raise RecordParseError(f"{file_path}:{number}: {exc}")
            except ValueError:
                continue  # a blank line; the loader parses the rest


class DatasetStore:
    """Cleaned crawl records with assembly and persistence."""

    def __init__(
        self,
        shops: list[ShopRecord] | None = None,
        items: list[ItemRecord] | None = None,
        comments: list[CommentRecord] | None = None,
    ) -> None:
        self.shops = clean_shops(shops or [])
        self.items = clean_items(items or [])
        known_ids = {item.item_id for item in self.items}
        self.comments = clean_comments(comments or [], known_ids or None)

    @classmethod
    def from_crawl(cls, result: CrawlResult) -> "DatasetStore":
        """Build a store from a raw crawl result (cleaning applied)."""
        return cls(
            shops=result.shops, items=result.items, comments=result.comments
        )

    # -- assembly --------------------------------------------------------

    def crawled_items(self) -> list[CrawledItem]:
        """Bundle every item with its comments (possibly empty)."""
        by_item: dict[int, list[CommentRecord]] = {
            item.item_id: [] for item in self.items
        }
        for comment in self.comments:
            if comment.item_id in by_item:
                by_item[comment.item_id].append(comment)
        return [
            CrawledItem(item=item, comments=by_item[item.item_id])
            for item in self.items
        ]

    def summary(self) -> dict[str, int]:
        """Record counts, shaped like the paper's dataset tables."""
        return {
            "shops": len(self.shops),
            "items": len(self.items),
            "comments": len(self.comments),
        }

    # -- persistence --------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        """Write shops/items/comments as JSONL files under *directory*.

        Each file is written atomically (staged + renamed), so a crash
        mid-save leaves the previous complete file rather than a
        truncated one that :meth:`load` would silently accept.
        """
        path = Path(directory)
        path.mkdir(parents=True, exist_ok=True)
        for name, records in (
            ("shops", self.shops),
            ("items", self.items),
            ("comments", self.comments),
        ):
            write_jsonl_atomic(
                path / f"{name}.jsonl",
                (asdict(record) for record in records),
            )

    @classmethod
    def load(cls, directory: str | Path) -> "DatasetStore":
        """Load a store previously written by :meth:`save`; text that
        cannot be written back as UTF-8 raises :class:`RecordParseError`
        naming its file and line."""
        path = Path(directory)

        def read(name: str) -> list[dict]:
            file_path = path / f"{name}.jsonl"
            if not file_path.exists():
                return []
            _check_utf8(file_path)
            with open(file_path, encoding="utf-8") as fh:
                return [json.loads(line) for line in fh if line.strip()]

        return cls(
            shops=[ShopRecord(**row) for row in read("shops")],
            items=[ItemRecord(**row) for row in read("items")],
            comments=[CommentRecord(**row) for row in read("comments")],
        )
