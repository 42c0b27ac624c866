"""Append-only columnar store for analyzed comments.

Everything upstream of the detector works on *analyzed* comments: the
segmentation interned to ``int32`` ids plus a dozen per-comment scalars.
This module keeps them as flat arrays, so a restart need not re-run the
analysis and a feature matrix is one numpy pass:

* one flat ``int32`` **token arena** holding every comment's interned
  ids back to back, with an ``int64`` ``offsets`` array (length
  ``n_comments + 1``) marking each comment's slice;
* **parallel stat columns** (one value per comment): ``item_id`` /
  ``comment_id`` / char count / lexicon counts as integers, sentiment /
  entropy / punctuation ratio / bigram term / append timestamp as
  ``float64``.

Rescoring an item is array slicing: gather the item's rows, sum the
stat columns, count distinct token ids in the gathered arena ranges,
and apply :func:`~repro.core.features.table2_rows`.  The matrix is
**bit-identical** to the streaming detector's running sums:
``np.bincount(seg, weights=w)`` adds each item's values left to right
from 0.0 in row order, the order the detector folds them in (numpy's
pairwise ``reduceat``/``sum`` would round differently).

Persistence and crash safety
----------------------------

``save`` writes one raw ``.npy`` per column (mappable, unlike npz)
through the atomic writers in :mod:`repro.core.persistence`, the
interner snapshot beside them (word list as JSON, derived masks as
npz), and the ``store.json`` manifest **last**.  The manifest records
the committed ``n_comments`` / ``n_tokens`` / vocabulary size; readers
slice every array down to the manifest's counts.  Because the store is
append-only, a newer column file is always a superset of an older one,
so any mix of file generations a crash can leave behind is consistent:
the committed prefix named by whichever manifest survived is always
readable.  ``load(..., mode="mmap")`` opens the columns with
``np.load(mmap_mode="r")``, so a restart rehydrates tens of millions of
analyzed comments without paging them in or re-running a single
segmentation (pin that with
:attr:`~repro.core.analyzer.SemanticAnalyzer.n_segmentations`).

Interner lifecycle
------------------

Token ids only mean something relative to the interner that assigned
them, so the interner snapshot travels with the arena.  Two ways to
reopen a store:

* :meth:`ColumnarCommentStore.load` with no interner builds a *frozen*
  :meth:`TokenInterner.from_arrays` interner from the snapshot --
  self-contained, read-mostly, rejects unseen words;
* :meth:`ColumnarCommentStore.attach` replays the stored word list into
  a live analyzer's interner (:meth:`TokenInterner.adopt_words`), which
  must assign identical ids -- the store then keeps growing under that
  analyzer, and new analyses append directly.

A store optionally records the ``analyzer_hash`` of the archive it was
built under; ``load``/``attach`` reject a mismatched hash instead of
decoding one model's token ids against another's vocabulary.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterable, Sequence
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.features import (
    N_FEATURES,
    STAT_COLUMN_DTYPES,
    SUMMED_COLUMNS,
    table2_rows,
)
from repro.core.interning import (
    TokenInterner,
    gather_ranges,
    sort_pairs,
)
from repro.core.persistence import (
    write_json_atomic,
    write_npy_atomic,
    write_npz_atomic,
)

#: Version tag for the on-disk layout.
STORE_VERSION = 1

#: Manifest filename; written last, so its counts define the committed
#: prefix of every other file.
MANIFEST_NAME = "store.json"

#: Columns persisted one ``.npy`` each, in manifest order: identity,
#: the chunk kernel's stat columns, the append timestamp.  ``n_words``
#: is *not* a column -- it is ``np.diff(offsets)``.
_COLUMN_DTYPES: dict[str, Any] = {
    "item_id": np.int64,
    "comment_id": np.int64,
    **STAT_COLUMN_DTYPES,
    "timestamp": np.float64,
}
_COLUMN_NAMES: tuple[str, ...] = tuple(_COLUMN_DTYPES)

#: The per-comment *analysis* columns an :meth:`append_arrays` payload
#: must supply -- everything except identity (``item_id`` /
#: ``comment_id``) and the append ``timestamp``, which the caller and
#: the store provide respectively.  Parallel-analysis shards carry
#: exactly these.
STAT_COLUMN_NAMES: tuple[str, ...] = tuple(STAT_COLUMN_DTYPES)


class ColumnarStoreError(RuntimeError):
    """Raised on invalid store operations or a corrupt on-disk store."""


class _Growable:
    """Amortized-append ``np.ndarray`` (capacity doubling)."""

    __slots__ = ("data", "n")

    def __init__(self, dtype: Any, capacity: int = 1024) -> None:
        self.data = np.zeros(capacity, dtype=dtype)
        self.n = 0

    def extend(self, values: np.ndarray | Sequence) -> None:
        values = np.asarray(values, dtype=self.data.dtype)
        needed = self.n + len(values)
        capacity = len(self.data)
        if needed > capacity:
            while capacity < needed:
                capacity *= 2
            grown = np.zeros(capacity, dtype=self.data.dtype)
            grown[: self.n] = self.data[: self.n]
            self.data = grown
        self.data[self.n : needed] = values
        self.n = needed

    @property
    def view(self) -> np.ndarray:
        return self.data[: self.n]


# -- the store ---------------------------------------------------------------


class ColumnarCommentStore:
    """Append-only columnar storage for analyzed comments.

    Build empty against an interner (usually a live analyzer's), feed
    it the extractor's analyzed batches -- the chunk kernel's
    :class:`~repro.core.features.CommentColumns` -- via
    :meth:`append_arrays`, and :meth:`save` it beside the model.
    Reopen with :meth:`load` (read-mostly, memory-mapped, frozen
    interner) or :meth:`attach` (appendable, bound to a live
    analyzer).  See the module docstring for layout and crash-safety
    guarantees.
    """

    def __init__(
        self,
        interner: TokenInterner,
        analyzer_hash: str | None = None,
    ) -> None:
        self._interner = interner
        self.analyzer_hash = analyzer_hash
        self.mode = "memory"
        self.generation = 0
        self.directory: Path | None = None
        self._tokens = _Growable(np.int32, capacity=4096)
        offsets = _Growable(np.int64)
        offsets.extend([0])
        self._offsets = offsets
        self._cols: dict[str, _Growable] = {
            name: _Growable(dtype) for name, dtype in _COLUMN_DTYPES.items()
        }
        #: (stable row order grouped by item id, sorted item ids) --
        #: rebuilt lazily after appends.
        self._index: tuple[np.ndarray, np.ndarray] | None = None
        # telemetry counters (surfaced via serving /stats)
        self.n_appended_rows = 0
        self.n_rehydrated_rows = 0
        self.n_saves = 0

    # -- views -------------------------------------------------------------

    @property
    def interner(self) -> TokenInterner:
        """The interner whose id space the token arena is encoded in."""
        return self._interner

    @property
    def n_comments(self) -> int:
        return self._cols["item_id"].n if self.mode == "memory" else len(
            self._cols["item_id"]
        )

    @property
    def n_tokens(self) -> int:
        return self._tokens.n if self.mode == "memory" else len(self._tokens)

    def __len__(self) -> int:
        return self.n_comments

    def tokens(self) -> np.ndarray:
        """The committed token arena (a view; do not mutate)."""
        return self._tokens.view if self.mode == "memory" else self._tokens

    def offsets(self) -> np.ndarray:
        """Arena offsets, length ``n_comments + 1`` (a view)."""
        return (
            self._offsets.view if self.mode == "memory" else self._offsets
        )

    def column(self, name: str) -> np.ndarray:
        """One committed stat column by name (a view)."""
        col = self._cols[name]
        return col.view if self.mode == "memory" else col

    def token_ids(self, row: int) -> np.ndarray:
        """The interned segmentation of one stored comment."""
        offsets = self.offsets()
        return np.asarray(
            self.tokens()[offsets[row] : offsets[row + 1]], dtype=np.int32
        )

    # -- appending ---------------------------------------------------------

    def append_arrays(
        self,
        item_ids: Sequence[int] | np.ndarray,
        comment_ids: Sequence[int] | np.ndarray,
        tokens: np.ndarray,
        offsets: np.ndarray,
        columns: dict[str, np.ndarray | Sequence],
        timestamps: Sequence[float] | np.ndarray | None = None,
    ) -> int:
        """Append one pre-analyzed columnar batch; returns its first row.

        The one append primitive: the streaming detector, the serial
        batch path and the parallel-analysis shards all feed it a
        :class:`~repro.core.features.CommentColumns` payload.  *tokens*
        is the batch's interned arena (ids in **this store's interner**
        space -- remap worker-local shards first, see
        :func:`repro.core.interning.remap_ids`), *offsets* its
        batch-local offsets (length ``n + 1``, starting at 0), and
        *columns* one entry per :data:`STAT_COLUMN_NAMES`.  Offsets are
        rebased onto the arena tail; *timestamps* defaults to now.
        """
        if self.mode != "memory":
            raise ColumnarStoreError(
                "store is memory-mapped read-only; reopen with "
                "mode='memory' or attach() to append"
            )
        offsets = np.asarray(offsets, dtype=np.int64)
        if offsets.ndim != 1 or len(offsets) < 1 or int(offsets[0]) != 0:
            raise ColumnarStoreError(
                "batch offsets must be 1-d, non-empty and start at 0"
            )
        if np.any(np.diff(offsets) < 0):
            raise ColumnarStoreError("batch offsets must be non-decreasing")
        n = len(offsets) - 1
        tokens = np.asarray(tokens, dtype=np.int32)
        if int(offsets[-1]) != len(tokens):
            raise ColumnarStoreError(
                f"batch offsets end at {int(offsets[-1])} but the token "
                f"arena holds {len(tokens)} ids"
            )
        if tokens.size and (
            int(tokens.min()) < 0 or int(tokens.max()) >= len(self._interner)
        ):
            raise ColumnarStoreError(
                f"batch token ids fall outside the store interner's "
                f"{len(self._interner)} words; remap shard-local ids "
                f"before appending"
            )
        if len(item_ids) != n or len(comment_ids) != n:
            raise ColumnarStoreError(
                f"batch holds {n} comments but {len(item_ids)} item ids "
                f"and {len(comment_ids)} comment ids"
            )
        missing = [name for name in STAT_COLUMN_NAMES if name not in columns]
        if missing:
            raise ColumnarStoreError(
                f"batch columns missing {missing}; expected all of "
                f"{list(STAT_COLUMN_NAMES)}"
            )
        for name in STAT_COLUMN_NAMES:
            if len(columns[name]) != n:
                raise ColumnarStoreError(
                    f"batch column {name!r} holds {len(columns[name])} "
                    f"values for {n} comments"
                )
        if timestamps is None:
            timestamps = np.full(n, time.time(), dtype=np.float64)
        elif len(timestamps) != n:
            raise ColumnarStoreError(
                f"batch holds {n} comments but {len(timestamps)} timestamps"
            )
        first_row = self.n_comments
        last = self._offsets.view[-1]
        self._offsets.extend(last + offsets[1:])
        if len(tokens):
            self._tokens.extend(tokens)
        self._cols["item_id"].extend(item_ids)
        self._cols["comment_id"].extend(comment_ids)
        for name in STAT_COLUMN_NAMES:
            self._cols[name].extend(columns[name])
        self._cols["timestamp"].extend(timestamps)
        self.n_appended_rows += n
        self._index = None
        return first_row

    # -- item access -------------------------------------------------------

    def _item_index(self) -> tuple[np.ndarray, np.ndarray]:
        if self._index is None:
            item_col = np.asarray(self.column("item_id"))
            order = np.argsort(item_col, kind="stable")
            self._index = (order, item_col[order])
        return self._index

    def item_rows(self, item_id: int) -> np.ndarray:
        """Row indices of one item's comments, in append order."""
        order, sorted_items = self._item_index()
        left = np.searchsorted(sorted_items, item_id, side="left")
        right = np.searchsorted(sorted_items, item_id, side="right")
        return order[left:right]

    def feature_matrix(self, item_ids: Iterable[int]) -> np.ndarray:
        """Table II feature rows for *item_ids*, from columns alone.

        Row ``i`` is bit-identical (``np.array_equal``) to the
        streaming detector's row for item ``i`` after it folded the
        same comments in append order.  Items with no stored comments
        get the all-zero row.  Only gathers and ``np.bincount`` sums
        over the committed columns run here: no segmentation or
        sentiment.
        """
        item_ids = np.asarray(list(item_ids), dtype=np.int64)
        n_items = len(item_ids)
        if n_items == 0 or self.n_comments == 0:
            return np.zeros((n_items, N_FEATURES))
        order, sorted_items = self._item_index()
        left = np.searchsorted(sorted_items, item_ids, side="left")
        right = np.searchsorted(sorted_items, item_ids, side="right")
        lens = right - left
        # Each item's rows in append order, items in request order.
        rows = gather_ranges(order, left, right)
        self.n_rehydrated_rows += int(len(rows))
        seg = np.repeat(np.arange(n_items), lens)
        offsets = np.asarray(self.offsets())
        n_words = offsets[rows + 1] - offsets[rows]
        tokens = gather_ranges(self.tokens(), offsets[rows], offsets[rows + 1])
        sorted_seg, _, edges = sort_pairs(tokens, np.repeat(seg, n_words))

        def item_sums(values: np.ndarray) -> np.ndarray:
            return np.bincount(seg, weights=values, minlength=n_items)

        return table2_rows(
            np.column_stack(
                [
                    lens,
                    item_sums(n_words),
                    np.bincount(sorted_seg[edges[:-1]], minlength=n_items),
                    *(
                        item_sums(np.asarray(self.column(name))[rows])
                        for name in SUMMED_COLUMNS
                    ),
                ]
            )
        )

    # -- persistence -------------------------------------------------------

    def save(self, directory: str | Path | None = None) -> int:
        """Persist the committed state; returns the new generation.

        Column files and the interner snapshot are written (atomically,
        one by one) *before* the manifest, whose counts define the
        committed prefix -- see the module docstring for why any crash
        point leaves a readable store.  *directory* is sticky: pass it
        once, subsequent saves reuse it.
        """
        if self.mode != "memory":
            raise ColumnarStoreError(
                "a memory-mapped store is read-only; it cannot save over "
                "its own backing files"
            )
        if directory is not None:
            self.directory = Path(directory)
        if self.directory is None:
            raise ColumnarStoreError("no target directory for save()")
        path = self.directory
        path.mkdir(parents=True, exist_ok=True)
        n_comments = self.n_comments
        n_tokens = self.n_tokens
        interner_state = self._interner.export_state()
        vocab_size = len(interner_state["words"])
        max_id = int(self.tokens().max()) if n_tokens else -1
        if max_id >= vocab_size:
            raise ColumnarStoreError(
                f"token arena references id {max_id} but the interner "
                f"only holds {vocab_size} words; the store was fed ids "
                f"from a different interner"
            )
        write_npy_atomic(path / "tokens.npy", self.tokens())
        write_npy_atomic(path / "offsets.npy", self.offsets())
        for name in _COLUMN_NAMES:
            write_npy_atomic(path / f"{name}.npy", self.column(name))
        write_json_atomic(
            path / "interner.json", {"words": interner_state["words"]}
        )
        write_npz_atomic(
            path / "interner.npz",
            positive_mask=interner_state["positive_mask"],
            negative_mask=interner_state["negative_mask"],
            sentiment_ids=interner_state["sentiment_ids"],
        )
        self.generation += 1
        manifest = {
            "store_version": STORE_VERSION,
            "generation": self.generation,
            "n_comments": n_comments,
            "n_tokens": n_tokens,
            "vocab_size": vocab_size,
            "analyzer_hash": self.analyzer_hash,
            "columns": list(_COLUMN_NAMES),
        }
        write_json_atomic(path / MANIFEST_NAME, manifest, indent=2)
        self.n_saves += 1
        return self.generation

    @staticmethod
    def read_manifest(directory: str | Path) -> dict[str, Any]:
        """The committed manifest under *directory*."""
        manifest_path = Path(directory) / MANIFEST_NAME
        if not manifest_path.exists():
            raise ColumnarStoreError(
                f"no columnar store at {directory} (missing "
                f"{MANIFEST_NAME})"
            )
        return json.loads(manifest_path.read_text(encoding="utf-8"))

    @classmethod
    def load(
        cls,
        directory: str | Path,
        mode: str = "mmap",
        interner: TokenInterner | None = None,
        expected_analyzer_hash: str | None = None,
    ) -> "ColumnarCommentStore":
        """Open a persisted store.

        ``mode="mmap"`` (default) memory-maps the committed columns --
        read-only, near-zero load cost, ideal for restart rehydration
        and offline rescoring.  ``mode="memory"`` copies them into
        growable arrays so appending can continue.  Without *interner*
        a frozen one is rebuilt from the snapshot; pass a live
        analyzer's via :meth:`attach` instead of calling this directly
        when the store should keep growing under analysis.
        """
        if mode not in ("mmap", "memory"):
            raise ValueError(f"mode must be 'mmap' or 'memory', got {mode!r}")
        path = Path(directory)
        manifest = cls.read_manifest(path)
        if manifest.get("store_version") != STORE_VERSION:
            raise ColumnarStoreError(
                f"unsupported store version "
                f"{manifest.get('store_version')!r}"
            )
        recorded_hash = manifest.get("analyzer_hash")
        if (
            expected_analyzer_hash is not None
            and recorded_hash is not None
            and recorded_hash != expected_analyzer_hash
        ):
            raise ColumnarStoreError(
                f"store at {path} was built under analyzer "
                f"{recorded_hash[:12]}..., cannot open under analyzer "
                f"{expected_analyzer_hash[:12]}...; its token ids would "
                f"decode against the wrong vocabulary"
            )
        n_comments = int(manifest["n_comments"])
        n_tokens = int(manifest["n_tokens"])
        vocab_size = int(manifest["vocab_size"])
        mmap_mode = "r" if mode == "mmap" else None

        def load_array(name: str, needed: int) -> np.ndarray:
            file_path = path / f"{name}.npy"
            try:
                array = np.load(file_path, mmap_mode=mmap_mode)
            except (OSError, ValueError) as exc:
                raise ColumnarStoreError(
                    f"cannot read store column {file_path}: {exc}"
                ) from exc
            if len(array) < needed:
                raise ColumnarStoreError(
                    f"store column {name} holds {len(array)} entries but "
                    f"the manifest commits {needed}; the store is corrupt"
                )
            return array[:needed]

        tokens = load_array("tokens", n_tokens)
        offsets = load_array("offsets", n_comments + 1)
        if int(offsets[0]) != 0 or int(offsets[-1]) != n_tokens:
            raise ColumnarStoreError(
                f"store offsets span [{int(offsets[0])}, "
                f"{int(offsets[-1])}] but the manifest commits "
                f"{n_tokens} arena tokens; the store is corrupt"
            )
        columns = {
            name: load_array(name, n_comments) for name in _COLUMN_NAMES
        }
        if interner is None:
            interner = cls._load_interner(path, vocab_size)
        elif len(interner) < vocab_size:
            raise ColumnarStoreError(
                f"provided interner holds {len(interner)} words but the "
                f"store needs {vocab_size}"
            )
        store = cls(interner, analyzer_hash=recorded_hash)
        store.directory = path
        store.generation = int(manifest["generation"])
        if mode == "mmap":
            store.mode = "mmap"
            store._tokens = tokens  # type: ignore[assignment]
            store._offsets = offsets  # type: ignore[assignment]
            store._cols = columns  # type: ignore[assignment]
        else:
            store._tokens.extend(np.asarray(tokens))
            store._offsets.extend(np.asarray(offsets[1:]))
            for name in _COLUMN_NAMES:
                store._cols[name].extend(np.asarray(columns[name]))
        return store

    @staticmethod
    def _load_interner(path: Path, vocab_size: int) -> TokenInterner:
        try:
            words = json.loads(
                (path / "interner.json").read_text(encoding="utf-8")
            )["words"]
            arrays = np.load(path / "interner.npz")
        except (OSError, ValueError, KeyError) as exc:
            raise ColumnarStoreError(
                f"cannot read interner snapshot under {path}: {exc}"
            ) from exc
        if len(words) < vocab_size:
            raise ColumnarStoreError(
                f"interner snapshot holds {len(words)} words but the "
                f"manifest commits {vocab_size}; the store is corrupt"
            )
        return TokenInterner.from_arrays(
            words[:vocab_size],
            arrays["positive_mask"][:vocab_size],
            arrays["negative_mask"][:vocab_size],
            arrays["sentiment_ids"][:vocab_size],
        )

    @classmethod
    def attach(
        cls,
        directory: str | Path,
        analyzer,
        expected_analyzer_hash: str | None = None,
    ) -> "ColumnarCommentStore":
        """Open a store for continued growth under a live analyzer.

        Replays the stored vocabulary into *analyzer*'s interner (each
        word must land on its stored id -- attach before the analyzer
        interns anything else) and loads the columns appendable.  The
        returned store shares the analyzer's interner, so everything
        the analyzer's extractor produces can be appended directly.
        """
        path = Path(directory)
        manifest = cls.read_manifest(path)
        vocab_size = int(manifest["vocab_size"])
        try:
            words = json.loads(
                (path / "interner.json").read_text(encoding="utf-8")
            )["words"]
        except (OSError, ValueError, KeyError) as exc:
            raise ColumnarStoreError(
                f"cannot read interner snapshot under {path}: {exc}"
            ) from exc
        try:
            analyzer.interner.adopt_words(words[:vocab_size])
        except ValueError as exc:
            raise ColumnarStoreError(str(exc)) from exc
        return cls.load(
            path,
            mode="memory",
            interner=analyzer.interner,
            expected_analyzer_hash=expected_analyzer_hash,
        )

    # -- telemetry ---------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Counters and gauges for the serving ``/stats`` endpoint."""
        return {
            "mode": self.mode,
            "comments": self.n_comments,
            "tokens": self.n_tokens,
            "arena_bytes": int(np.asarray(self.tokens()).nbytes),
            "vocab_size": len(self._interner),
            "generation": self.generation,
            "appended_rows": self.n_appended_rows,
            "rehydrated_rows": self.n_rehydrated_rows,
            "saves": self.n_saves,
        }


def append_comments(
    store: ColumnarCommentStore,
    extractor,
    records: Sequence,
    chunk_size: int = 8192,
) -> int:
    """Analyze *records* through *extractor* and append them in chunks.

    Each chunk goes through the extractor's chunk kernel
    (:meth:`~repro.core.features.FeatureExtractor.comment_columns`)
    straight into :meth:`ColumnarCommentStore.append_arrays`, without
    the analysis cache.  The chunked batching keeps peak memory flat
    on multi-million-comment datasets while still
    amortizing sentiment into one NB call per chunk.  Returns the
    number of rows appended.  :func:`~repro.core.parallel_analysis.
    analyze_many` runs it when it gets one worker.
    """
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    appended = 0
    for start in range(0, len(records), chunk_size):
        chunk = records[start : start + chunk_size]
        batch = extractor.comment_columns([record.content for record in chunk])
        store.append_arrays(
            [int(record.item_id) for record in chunk],
            [int(record.comment_id) for record in chunk],
            batch.tokens,
            batch.offsets,
            batch.columns,
        )
        appended += len(chunk)
    return appended
