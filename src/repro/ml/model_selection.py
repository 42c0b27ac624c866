"""Data splitting and cross validation.

Table III of the paper compares the six candidate classifiers under
"standard five-cross validation: 4/5 of the data is used for training
... and 1/5 ... for testing".  :func:`cross_validate` reproduces exactly
that protocol and reports the mean fraud-class precision and recall over
folds, which are the two numbers the table prints.

Folds are independent, so :func:`cross_validate` can fit them
concurrently (``n_workers=N``) on the :mod:`repro.parallel` executor;
the factory must pickle for the folds to reach worker processes.  The
result is *bitwise identical* for any worker count: all splits are
materialized up front from the one splitter RNG, per-fold seeds (when
the factory wants them) are derived with ``SeedSequence.spawn`` rather
than sharing a generator, and fold metrics are aggregated in fold order
no matter which worker finished first.
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Iterator

import numpy as np

from repro.ml.base import as_rng, check_X_y, spawn_seeds
from repro.ml.metrics import precision_recall_f1
from repro.parallel import map_ordered


class KFold:
    """Plain k-fold splitter with optional shuffling."""

    def __init__(
        self,
        n_splits: int = 5,
        shuffle: bool = True,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if n_splits < 2:
            raise ValueError(f"n_splits must be >= 2, got {n_splits}")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self._seed = seed

    def split(self, n_samples: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield ``(train_idx, test_idx)`` pairs over *n_samples* rows."""
        if n_samples < self.n_splits:
            raise ValueError(
                f"cannot split {n_samples} samples into {self.n_splits} folds"
            )
        indices = np.arange(n_samples)
        if self.shuffle:
            as_rng(self._seed).shuffle(indices)
        folds = np.array_split(indices, self.n_splits)
        for i in range(self.n_splits):
            test_idx = folds[i]
            train_idx = np.concatenate(
                [folds[j] for j in range(self.n_splits) if j != i]
            )
            yield train_idx, test_idx


class StratifiedKFold:
    """K-fold splitter that preserves the class ratio within each fold.

    Needed because fraud datasets are heavily imbalanced (D1 is ~1.3%
    fraud); plain k-fold could produce folds with almost no positives.
    """

    def __init__(
        self,
        n_splits: int = 5,
        shuffle: bool = True,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if n_splits < 2:
            raise ValueError(f"n_splits must be >= 2, got {n_splits}")
        self.n_splits = n_splits
        self.shuffle = shuffle
        self._seed = seed

    def split(self, y) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield stratified ``(train_idx, test_idx)`` pairs for labels *y*."""
        labels = np.asarray(y).ravel()
        rng = as_rng(self._seed)
        per_class_folds: list[list[np.ndarray]] = []
        for cls in np.unique(labels):
            cls_idx = np.flatnonzero(labels == cls)
            if len(cls_idx) < self.n_splits:
                raise ValueError(
                    f"class {cls} has {len(cls_idx)} samples, fewer than "
                    f"{self.n_splits} folds"
                )
            if self.shuffle:
                rng.shuffle(cls_idx)
            per_class_folds.append(np.array_split(cls_idx, self.n_splits))
        for i in range(self.n_splits):
            test_idx = np.concatenate([folds[i] for folds in per_class_folds])
            train_idx = np.concatenate(
                [
                    folds[j]
                    for folds in per_class_folds
                    for j in range(self.n_splits)
                    if j != i
                ]
            )
            yield np.sort(train_idx), np.sort(test_idx)


def train_test_split(
    X,
    y,
    test_size: float = 0.2,
    stratify: bool = True,
    seed: int | np.random.Generator | None = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split ``(X, y)`` into train/test partitions.

    Returns ``(X_train, X_test, y_train, y_test)``.
    """
    X_arr, y_arr = check_X_y(X, y)
    if not 0.0 < test_size < 1.0:
        raise ValueError(f"test_size must be in (0, 1), got {test_size}")
    rng = as_rng(seed)
    n = len(y_arr)
    if stratify:
        test_mask = np.zeros(n, dtype=bool)
        for cls in np.unique(y_arr):
            cls_idx = np.flatnonzero(y_arr == cls)
            rng.shuffle(cls_idx)
            n_test = max(1, int(round(test_size * len(cls_idx))))
            test_mask[cls_idx[:n_test]] = True
    else:
        order = rng.permutation(n)
        n_test = max(1, int(round(test_size * n)))
        test_mask = np.zeros(n, dtype=bool)
        test_mask[order[:n_test]] = True
    return (
        X_arr[~test_mask],
        X_arr[test_mask],
        y_arr[~test_mask],
        y_arr[test_mask],
    )


def _accepts_fold_seed(model_factory: Callable[..., object]) -> bool:
    """True when the factory declares a parameter literally named
    ``fold_seed`` (opt-in to per-fold model seeding)."""
    try:
        parameters = inspect.signature(model_factory).parameters
    except (TypeError, ValueError):
        return False
    return "fold_seed" in parameters


def _fit_and_score(task) -> tuple[float, float, float]:
    """Fit a fresh model on one fold and return (precision, recall, f1).

    Module-level (not a closure) so process-pool workers can import it.
    """
    model_factory, X, y, train_idx, test_idx, fold_seed = task
    if fold_seed is not None:
        model = model_factory(fold_seed=fold_seed)
    else:
        model = model_factory()
    model.fit(X[train_idx], y[train_idx])
    y_pred = model.predict(X[test_idx])
    return precision_recall_f1(y[test_idx], y_pred)


#: Always 0, since CV runs no threads; kept for the benchmark's tracer
#: (``perfbench/spans.py``), which reads it.  Executor fallbacks are
#: counted in ``repro.parallel.STATS``.
N_THREAD_FALLBACKS = 0


def cross_validate(
    model_factory: Callable[..., "object"],
    X,
    y,
    n_splits: int = 5,
    stratified: bool = True,
    seed: int | np.random.Generator | None = 0,
    n_workers: int | None = None,
) -> dict[str, float]:
    """Run k-fold CV and return mean fraud-class precision/recall/F1.

    Parameters
    ----------
    model_factory:
        Zero-argument callable returning a fresh unfitted classifier;
        a fresh model is built per fold so folds stay independent.  If
        it declares a ``fold_seed`` parameter, each fold's model gets
        an independent integer seed derived from *seed* via
        ``SeedSequence.spawn`` (never a generator shared across folds).
    n_workers:
        Fit folds concurrently on up to this many worker processes
        (:func:`repro.parallel.map_ordered`).  Output is bitwise
        identical for every value: splits are materialized before any
        fit and metrics aggregate in fold order.

    Returns a dict with keys ``precision``, ``recall``, ``f1`` (fold
    means) and ``precision_std`` / ``recall_std`` / ``f1_std``.
    """
    X_arr, y_arr = check_X_y(X, y)
    splitter: StratifiedKFold | KFold
    if stratified:
        splitter = StratifiedKFold(n_splits=n_splits, seed=seed)
        splits = list(splitter.split(y_arr))
    else:
        splitter = KFold(n_splits=n_splits, seed=seed)
        splits = list(splitter.split(len(y_arr)))

    # Splits consume the splitter RNG first (above); fold seeds are
    # derived only when asked for, so factories without a ``fold_seed``
    # parameter see exactly the serial pre-n_workers behaviour.
    if _accepts_fold_seed(model_factory):
        fold_seeds: list[int | None] = list(spawn_seeds(seed, n_splits))
    else:
        fold_seeds = [None] * n_splits

    tasks = [
        (model_factory, X_arr, y_arr, train_idx, test_idx, fold_seed)
        for (train_idx, test_idx), fold_seed in zip(splits, fold_seeds)
    ]
    fold_metrics = map_ordered(_fit_and_score, tasks, n_workers)
    precisions = [m[0] for m in fold_metrics]
    recalls = [m[1] for m in fold_metrics]
    f1s = [m[2] for m in fold_metrics]
    return {
        "precision": float(np.mean(precisions)),
        "recall": float(np.mean(recalls)),
        "f1": float(np.mean(f1s)),
        "precision_std": float(np.std(precisions)),
        "recall_std": float(np.std(recalls)),
        "f1_std": float(np.std(f1s)),
    }
