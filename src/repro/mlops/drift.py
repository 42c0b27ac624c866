"""Per-feature distribution-drift detection (PSI / KS).

CATS's premise is cross-platform transfer: a detector pre-trained on
Taobao's D0 scores traffic from platforms it never saw.  That only
works while live feature distributions resemble the training
distribution -- the survey literature names distribution shift as the
central failure mode of deployed fraud detectors.  This module makes
the shift measurable:

* at **train time**, :class:`ReferenceHistogram` captures one quantile
  histogram per Table II feature over the training feature matrix,
  binned by the hist-GBDT's own cuts (:func:`repro.ml.gbdt.bin_cuts`:
  distinct-value midpoints when a feature has few values, interior
  quantiles otherwise), persisted as JSON + npz next to the model
  artifact;
* at **serve time**, :class:`DriftMonitor` folds every feature vector
  the detector scores into live per-feature histograms (one
  ``searchsorted`` + ``bincount`` per feature -- cheap enough for the
  scoring hot path) and computes two standard drift statistics on
  demand:

  - **PSI** (population stability index):
    ``sum((p - q) * ln(p / q))`` over bins, with epsilon-smoothed
    proportions.  Identical histograms give exactly 0.0; the usual
    operating rule of thumb is <0.1 stable, 0.1-0.25 drifting,
    >0.25 shifted.
  - **KS** (two-sample Kolmogorov-Smirnov statistic over the binned
    CDFs): ``max |CDF_ref - CDF_live|``, symmetric in its arguments.

The monitor never influences scoring -- it is pure observability,
surfaced through the serving layer's ``/drift`` endpoint and telemetry
gauges.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.features import FEATURE_NAMES
from repro.core.persistence import write_json_atomic, write_npz_atomic
from repro.ml.gbdt import bin_cuts

#: Default bin budget per feature (quantile bins; fewer when a feature
#: has fewer distinct values).
DEFAULT_BINS = 32

#: Proportion floor for PSI (standard epsilon smoothing so empty bins
#: do not produce infinities).
PSI_EPSILON = 1e-4

#: File stem for a persisted reference (``<stem>.json`` + ``<stem>.npz``).
REFERENCE_STEM = "drift_reference"


class DriftError(RuntimeError):
    """Raised for unusable reference histograms or live states."""


def psi_from_counts(
    reference: np.ndarray, live: np.ndarray, eps: float = PSI_EPSILON
) -> float:
    """Population stability index between two aligned count histograms.

    Both inputs are raw bin counts over the same bin edges.  Identical
    *distributions* (equal proportions) give exactly 0.0.  An empty
    live histogram carries no drift evidence and returns 0.0.
    """
    reference = np.asarray(reference, dtype=np.float64)
    live = np.asarray(live, dtype=np.float64)
    if reference.shape != live.shape:
        raise DriftError(
            f"histogram shapes differ: {reference.shape} vs {live.shape}"
        )
    ref_total = reference.sum()
    live_total = live.sum()
    if ref_total <= 0:
        raise DriftError("reference histogram is empty")
    if live_total <= 0:
        return 0.0
    p = np.maximum(reference / ref_total, eps)
    q = np.maximum(live / live_total, eps)
    return float(np.sum((p - q) * np.log(p / q)))


def ks_from_counts(reference: np.ndarray, live: np.ndarray) -> float:
    """Two-sample KS statistic over binned CDFs (symmetric in inputs).

    Returns 0.0 when either histogram is empty (no evidence).
    """
    reference = np.asarray(reference, dtype=np.float64)
    live = np.asarray(live, dtype=np.float64)
    if reference.shape != live.shape:
        raise DriftError(
            f"histogram shapes differ: {reference.shape} vs {live.shape}"
        )
    ref_total = reference.sum()
    live_total = live.sum()
    if ref_total <= 0 or live_total <= 0:
        return 0.0
    ref_cdf = np.cumsum(reference) / ref_total
    live_cdf = np.cumsum(live) / live_total
    return float(np.max(np.abs(ref_cdf - live_cdf)))


class ReferenceHistogram:
    """Per-feature training-time histograms against fixed bin edges.

    Parameters
    ----------
    edges:
        Per-feature interior bin edges (``len(edges[j]) + 1`` bins for
        feature *j*); a constant feature has no edges and one bin.
    counts:
        Per-feature reference counts aligned with the edges.
    feature_names:
        Column names, in matrix order.
    """

    def __init__(
        self,
        edges: list[np.ndarray],
        counts: list[np.ndarray],
        feature_names: tuple[str, ...] = FEATURE_NAMES,
    ) -> None:
        if not (len(edges) == len(counts) == len(feature_names)):
            raise DriftError(
                "edges, counts and feature_names must align "
                f"({len(edges)}/{len(counts)}/{len(feature_names)})"
            )
        for j, (edge, count) in enumerate(zip(edges, counts)):
            if len(count) != len(edge) + 1:
                raise DriftError(
                    f"feature {feature_names[j]!r}: {len(count)} counts "
                    f"for {len(edge)} edges (want edges + 1)"
                )
        self.edges = [np.asarray(e, dtype=np.float64) for e in edges]
        self.counts = [np.asarray(c, dtype=np.float64) for c in counts]
        self.feature_names = tuple(feature_names)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def n_rows(self) -> int:
        """Training rows the reference was built from."""
        return int(self.counts[0].sum()) if self.counts else 0

    @classmethod
    def from_matrix(
        cls,
        X: np.ndarray,
        feature_names: tuple[str, ...] = FEATURE_NAMES,
        n_bins: int = DEFAULT_BINS,
    ) -> "ReferenceHistogram":
        """Build a reference from a training feature matrix.

        Bin edges are the hist-GBDT's cuts
        (:func:`repro.ml.gbdt.bin_cuts`): a feature with at most
        ``n_bins`` distinct values gets midpoints between consecutive
        distinct values (every value its own bin); denser features get
        deduplicated interior quantiles.
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] == 0:
            raise DriftError(
                f"need a non-empty 2-D feature matrix, got shape {X.shape}"
            )
        if X.shape[1] != len(feature_names):
            raise DriftError(
                f"matrix has {X.shape[1]} columns but "
                f"{len(feature_names)} feature names"
            )
        if n_bins < 2:
            raise DriftError(f"n_bins must be >= 2, got {n_bins}")
        edges: list[np.ndarray] = []
        counts: list[np.ndarray] = []
        for j in range(X.shape[1]):
            column = X[:, j]
            edge = bin_cuts(column, n_bins)
            edges.append(edge)
            counts.append(
                np.bincount(
                    np.searchsorted(edge, column, side="left"),
                    minlength=len(edge) + 1,
                ).astype(np.float64)
            )
        return cls(edges, counts, feature_names)

    # -- persistence (JSON + npz, matching repro.core.persistence) -----------

    def save(self, directory: str | Path, stem: str = REFERENCE_STEM) -> None:
        """Write ``<stem>.json`` + ``<stem>.npz`` under *directory*."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        arrays: dict[str, np.ndarray] = {}
        for j in range(self.n_features):
            arrays[f"edges_{j}"] = self.edges[j]
            arrays[f"counts_{j}"] = self.counts[j]
        write_npz_atomic(directory / f"{stem}.npz", **arrays)
        write_json_atomic(
            directory / f"{stem}.json",
            {
                "feature_names": list(self.feature_names),
                "n_rows": self.n_rows,
            },
            indent=2,
        )

    @classmethod
    def load(
        cls, directory: str | Path, stem: str = REFERENCE_STEM
    ) -> "ReferenceHistogram":
        directory = Path(directory)
        meta_path = directory / f"{stem}.json"
        if not meta_path.exists():
            raise DriftError(f"no drift reference at {meta_path}")
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        names = tuple(meta["feature_names"])
        with np.load(directory / f"{stem}.npz") as arrays:
            edges = [arrays[f"edges_{j}"] for j in range(len(names))]
            counts = [arrays[f"counts_{j}"] for j in range(len(names))]
        return cls(edges, counts, names)

    @staticmethod
    def exists(directory: str | Path, stem: str = REFERENCE_STEM) -> bool:
        return (Path(directory) / f"{stem}.json").exists()


class DriftMonitor:
    """Accumulates live feature histograms and scores drift on demand.

    Designed for the serving hot path: :meth:`observe_matrix` is called
    with every feature matrix the detector scores (via the streaming
    detector's ``feature_observer`` hook) and costs one ``searchsorted``
    plus one ``bincount`` per feature.  Statistics are only computed
    when ``/drift`` (or :meth:`summary`) asks for them.

    The live histograms use the reference's bin edges, so cardinality
    is fixed at construction -- pathological traffic cannot grow the
    monitor's memory or its telemetry surface.
    """

    def __init__(self, reference: ReferenceHistogram) -> None:
        self.reference = reference
        self._live = [np.zeros_like(c) for c in reference.counts]
        self.n_live_rows = 0

    def observe_matrix(self, X: np.ndarray) -> None:
        """Fold a scored feature matrix into the live histograms."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.shape[1] != self.reference.n_features:
            raise DriftError(
                f"matrix has {X.shape[1]} columns, reference has "
                f"{self.reference.n_features}"
            )
        if X.shape[0] == 0:
            return
        for j, edge in enumerate(self.reference.edges):
            self._live[j] += np.bincount(
                np.searchsorted(edge, X[:, j], side="left"),
                minlength=len(edge) + 1,
            )
        self.n_live_rows += X.shape[0]

    def reset(self) -> None:
        """Drop the live histograms (e.g. after a model promotion)."""
        for live in self._live:
            live[:] = 0.0
        self.n_live_rows = 0

    # -- statistics ----------------------------------------------------------

    def psi(self) -> dict[str, float]:
        """Per-feature PSI of live traffic against the reference."""
        return {
            name: psi_from_counts(ref, live)
            for name, ref, live in zip(
                self.reference.feature_names, self.reference.counts, self._live
            )
        }

    def ks(self) -> dict[str, float]:
        """Per-feature KS statistic of live traffic vs the reference."""
        return {
            name: ks_from_counts(ref, live)
            for name, ref, live in zip(
                self.reference.feature_names, self.reference.counts, self._live
            )
        }

    def summary(self) -> dict[str, Any]:
        """JSON-ready drift report for ``/drift`` and ``/stats``."""
        psi = self.psi()
        ks = self.ks()
        return {
            "n_live_rows": self.n_live_rows,
            "n_reference_rows": self.reference.n_rows,
            "max_psi": round(max(psi.values()), 6) if psi else 0.0,
            "max_ks": round(max(ks.values()), 6) if ks else 0.0,
            "psi": {name: round(v, 6) for name, v in psi.items()},
            "ks": {name: round(v, 6) for name, v in ks.items()},
        }
