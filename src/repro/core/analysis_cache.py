"""Shared LRU cache over per-comment analysis results.

Duplicate comment texts are everywhere in review streams -- the
platform simulator reuses rendered comments across items, real spam
campaigns paste the same promotional copy under hundreds of listings,
and a recurring crawl re-surfaces old comments verbatim.  Since a
comment's analyzed row -- its token ids and stat values in
:class:`~repro.core.features.CommentColumns` -- is a pure function of
the raw text (given fixed analyzer resources), analyzing a duplicate is
wasted segmentation and sentiment work.

:class:`AnalysisCache` is a plain LRU keyed by raw comment text.
:meth:`FeatureExtractor.comment_stats_many` consults it -- streaming
accumulation, the serving layer and shadow scoring all funnel through
there -- so a comment seen on those paths is analyzed at most once
while it stays resident.  The batch paths (``append_comments``, the
parallel ``analyze_many`` and ``extract_many``, which analyzes into
in-memory stores) run the chunk kernel
:meth:`FeatureExtractor.comment_columns` directly and neither read nor
fill the cache: on a one-pass corpus it would hit too rarely to pay
for slicing every row into an entry.  An entry is one kernel row: the
text's token-id slice and a tuple of its stat values.

Invalidation rule: cached stats are only valid for the analyzer
resources they were computed under.  The extractor keys its cache on
the analyzer's *interner identity* (rebuilt whenever the segmenter,
lexicon or sentiment model object is replaced) and clears the cache on
any change; entries never go stale silently.  Eviction is safe by
construction -- a re-analyzed evicted text produces a bit-identical
row, which the pipeline benchmark asserts.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any


@dataclass(frozen=True)
class CacheInfo:
    """Counters snapshot for one :class:`AnalysisCache`."""

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int

    @property
    def hit_rate(self) -> float:
        """Hits per lookup; 0.0 before the first lookup."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class AnalysisCache:
    """Bounded LRU mapping comment text to its analysis result.

    Not thread-safe by itself; every consumer mutates it from a single
    thread (the serving layer's single-writer scheduler thread, or the
    caller's thread in batch extraction), matching the repo-wide
    single-writer convention.
    """

    def __init__(self, maxsize: int = 32768) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> Any | None:
        """Cached value for *key* (marked most-recent), or ``None``."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: str, value: Any) -> None:
        """Insert *key*, evicting least-recently-used entries past the cap."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
            entries[key] = value
            return
        entries[key] = value
        while len(entries) > self.maxsize:
            entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._entries.clear()

    def info(self) -> CacheInfo:
        """Current counters."""
        return CacheInfo(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            size=len(self._entries),
            maxsize=self.maxsize,
        )
