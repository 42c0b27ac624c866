"""Durable streaming-state checkpoints (one JSON file, no pickle).

A long-running detection service must survive ``kill -9``: whatever
state it rebuilt from its feed has to come back on restart, bit-exact,
or resumed scores drift from what an uninterrupted run would have
produced.  This module persists the snapshot structure exported by
:meth:`repro.core.streaming.StreamingDetector.export_state` following
the :mod:`repro.core.persistence` conventions -- plain JSON, no
pickling, atomic writes.

Layout
------

Each checkpoint is one directory under the manager's root::

    ckpt-00000042/
        state.json   the exported snapshot plus ``checkpoint_version``

JSON alone is exact: integers and text round-trip verbatim, and
``json`` writes every float with ``repr``, the shortest decimal string
that parses back to the same double, so the items' running sums and
last-scored probabilities (``-0.0`` and subnormals included) restore
bit for bit.  Each item stores its sums as one list and its distinct
words sorted.  A directory of any other ``checkpoint_version`` is
refused with :class:`CheckpointError`: version 1 split the float sums
into a ``.npz`` beside the JSON, and version 2 stored a per-field
accumulator dict with a word-to-count map per item.

Crash safety
------------

A checkpoint is assembled in a ``*.tmp`` sibling directory and
published with a single atomic ``os.rename``; readers ignore ``*.tmp``
remnants, so a checkpoint either exists completely or not at all.
:meth:`CheckpointManager.load_latest` walks checkpoints newest-first
and falls back past any unreadable one, so a torn disk cannot brick a
restart while an older good checkpoint exists.  ``keep`` bounds disk
use by pruning the oldest checkpoints after each successful save.
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path

from repro.core.persistence import write_json_atomic

#: Checkpoint directory format version.
CHECKPOINT_VERSION = 3

_PREFIX = "ckpt-"


class CheckpointError(RuntimeError):
    """No usable checkpoint could be written or read."""


class CheckpointManager:
    """Writes, prunes, and restores checkpoints under one directory.

    Parameters
    ----------
    directory:
        Checkpoint root; created on first save.
    keep:
        How many complete checkpoints to retain (oldest pruned first).
    """

    def __init__(self, directory: str | Path, keep: int = 3) -> None:
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.keep = keep

    # -- discovery -----------------------------------------------------------

    def _checkpoint_dirs(self) -> list[Path]:
        """Complete checkpoint directories, oldest first."""
        if not self.directory.is_dir():
            return []
        found = [
            path
            for path in self.directory.iterdir()
            if path.is_dir()
            and path.name.startswith(_PREFIX)
            and not path.name.endswith(".tmp")
        ]
        return sorted(found, key=lambda p: p.name)

    def latest_path(self) -> Path | None:
        """Newest complete checkpoint directory, or None."""
        dirs = self._checkpoint_dirs()
        return dirs[-1] if dirs else None

    def _next_sequence(self) -> int:
        dirs = self._checkpoint_dirs()
        if not dirs:
            return 1
        return int(dirs[-1].name[len(_PREFIX) :]) + 1

    # -- save / load ---------------------------------------------------------

    def save(self, state: dict) -> Path:
        """Persist one exported snapshot; returns its directory.

        The checkpoint becomes visible only after it is fully written
        (atomic directory rename); older checkpoints beyond ``keep``
        are pruned afterwards.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        sequence = self._next_sequence()
        final = self.directory / f"{_PREFIX}{sequence:08d}"
        staging = self.directory / f"{_PREFIX}{sequence:08d}.tmp"
        if staging.exists():
            shutil.rmtree(staging)
        staging.mkdir()
        try:
            write_json_atomic(
                staging / "state.json",
                dict(state, checkpoint_version=CHECKPOINT_VERSION),
            )
            os.rename(staging, final)
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        self._prune()
        return final

    def _prune(self) -> None:
        dirs = self._checkpoint_dirs()
        for stale in dirs[: max(0, len(dirs) - self.keep)]:
            shutil.rmtree(stale, ignore_errors=True)

    @staticmethod
    def load_dir(path: Path) -> dict:
        """Read one checkpoint directory back into a snapshot dict."""
        try:
            state = json.loads(
                (path / "state.json").read_text(encoding="utf-8")
            )
        except (OSError, ValueError) as exc:
            raise CheckpointError(f"unreadable checkpoint {path}: {exc}")
        version = state.pop("checkpoint_version", None)
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"unsupported checkpoint version {version!r} in {path}"
            )
        return state

    def load_latest(self) -> tuple[dict, Path] | None:
        """(snapshot, path) of the newest readable checkpoint.

        Unreadable checkpoints are skipped (newest-first); returns None
        when no checkpoint exists, raises :class:`CheckpointError` when
        checkpoints exist but none is readable.
        """
        dirs = self._checkpoint_dirs()
        if not dirs:
            return None
        last_error: CheckpointError | None = None
        for path in reversed(dirs):
            try:
                return self.load_dir(path), path
            except CheckpointError as exc:
                last_error = exc
        raise CheckpointError(
            f"no readable checkpoint under {self.directory}: {last_error}"
        )
