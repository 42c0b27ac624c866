"""Detector optimization: grid search and threshold calibration.

The paper's Section VII: "another future research direction is to ...
optimize CATS' detector".  Two concrete tools:

* :func:`grid_search` -- exhaustive hyperparameter search with k-fold
  CV, scoring by F1 (or any metric key produced by
  :func:`~repro.ml.model_selection.cross_validate`);
* :func:`calibrate_threshold` -- choose the stage-2 reporting threshold
  on held-out data for a *deployment* objective.  This matters because
  the detector trains on a balanced D0 (~41% fraud) but deploys at
  ~1% fraud prevalence, where the default 0.5 cut drowns precision.
  The calibration simulates the target prevalence by reweighting the
  validation negatives.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.ml.model_selection import cross_validate
from repro.parallel import map_ordered


@dataclass(frozen=True)
class GridSearchResult:
    """Outcome of one grid search."""

    best_params: dict[str, object]
    best_score: float
    #: Every (params, scores) pair evaluated, in grid order.
    trials: tuple[tuple[dict[str, object], dict[str, float]], ...]


def _evaluate_candidate(task) -> dict[str, float]:
    """CV-score one parameter combination (module-level for pickling)."""
    model_factory, params, X, y, n_splits, seed = task
    return cross_validate(
        lambda: model_factory(**params), X, y, n_splits=n_splits, seed=seed
    )


def grid_search(
    model_factory: Callable[..., object],
    param_grid: Mapping[str, Sequence[object]],
    X,
    y,
    metric: str = "f1",
    n_splits: int = 5,
    seed: int = 0,
    n_workers: int | None = None,
) -> GridSearchResult:
    """Exhaustive CV search over *param_grid*.

    ``model_factory(**params)`` must return a fresh unfitted classifier.
    With ``n_workers=N`` the candidate configurations are scored
    concurrently on worker processes (a factory that does not pickle
    runs inline); every candidate still uses the same integer *seed*
    (identical folds keep the comparison fair), results are gathered in
    grid order and ties still resolve to the earliest combination, so
    the outcome is identical for any worker count.

    >>> from repro.ml import GradientBoostingClassifier
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> X = rng.normal(size=(80, 3)); y = (X[:, 0] > 0).astype(int)
    >>> result = grid_search(
    ...     lambda **kw: GradientBoostingClassifier(seed=0, **kw),
    ...     {"max_depth": [2, 3]}, X, y, n_splits=4)
    >>> result.best_params["max_depth"] in (2, 3)
    True
    """
    if not param_grid:
        raise ValueError("param_grid must contain at least one parameter")
    names = sorted(param_grid)
    for name in names:
        if len(param_grid[name]) == 0:
            raise ValueError(f"parameter {name!r} has no candidate values")

    candidates = [
        dict(zip(names, combo))
        for combo in itertools.product(*(param_grid[name] for name in names))
    ]
    tasks = [
        (model_factory, params, X, y, n_splits, seed) for params in candidates
    ]
    all_scores = map_ordered(_evaluate_candidate, tasks, n_workers)

    trials: list[tuple[dict[str, object], dict[str, float]]] = []
    best_params: dict[str, object] | None = None
    best_score = -np.inf
    for params, scores in zip(candidates, all_scores):
        if metric not in scores:
            raise ValueError(
                f"unknown metric {metric!r}; available: {sorted(scores)}"
            )
        trials.append((params, scores))
        if scores[metric] > best_score:
            best_score = scores[metric]
            best_params = params
    assert best_params is not None
    return GridSearchResult(
        best_params=best_params,
        best_score=float(best_score),
        trials=tuple(trials),
    )


@dataclass(frozen=True)
class ThresholdCalibration:
    """Outcome of a threshold calibration."""

    threshold: float
    expected_precision: float
    expected_recall: float
    #: The full (threshold, precision, recall) curve examined.
    curve: tuple[tuple[float, float, float], ...]


def calibrate_threshold(
    proba: np.ndarray,
    labels: np.ndarray,
    target_prevalence: float | None = None,
    min_precision: float = 0.9,
    grid: Sequence[float] | None = None,
) -> ThresholdCalibration:
    """Pick the lowest threshold achieving *min_precision*.

    Parameters
    ----------
    proba / labels:
        Validation-set P(fraud) scores and true 0/1 labels.
    target_prevalence:
        Fraud prevalence of the *deployment* population.  When given and
        different from the validation prevalence, negatives are
        reweighted so the precision estimate reflects deployment (a
        balanced validation set wildly overestimates deployed
        precision).
    min_precision:
        Precision floor; among thresholds meeting it, the one with the
        highest recall (i.e. the lowest such threshold) wins.  If no
        threshold meets the floor, the highest-precision point is
        returned.
    grid:
        Candidate thresholds; defaults to 0.05..0.99.
    """
    scores = np.asarray(proba, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel()
    if scores.shape != y.shape:
        raise ValueError("proba and labels must have the same shape")
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise ValueError("calibration needs both classes in validation data")

    if target_prevalence is not None:
        if not 0.0 < target_prevalence < 1.0:
            raise ValueError(
                f"target_prevalence must be in (0,1), got {target_prevalence}"
            )
        # Weight negatives so the weighted prevalence matches deployment.
        pos_weight = 1.0
        neg_weight = (
            n_pos * (1.0 - target_prevalence) / (target_prevalence * n_neg)
        )
    else:
        pos_weight = neg_weight = 1.0

    thresholds = (
        np.asarray(grid, dtype=np.float64)
        if grid is not None
        else np.arange(0.05, 0.995, 0.01)
    )
    curve: list[tuple[float, float, float]] = []
    chosen: tuple[float, float, float] | None = None
    best_precision_point: tuple[float, float, float] | None = None
    for threshold in thresholds:
        predicted = scores >= threshold
        tp = float(pos_weight * np.sum(predicted & (y == 1)))
        fp = float(neg_weight * np.sum(predicted & (y == 0)))
        fn = float(pos_weight * np.sum(~predicted & (y == 1)))
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        point = (float(threshold), precision, recall)
        curve.append(point)
        if precision >= min_precision and chosen is None:
            chosen = point
        if (
            best_precision_point is None
            or precision > best_precision_point[1]
        ):
            best_precision_point = point
    final = chosen if chosen is not None else best_precision_point
    assert final is not None
    return ThresholdCalibration(
        threshold=final[0],
        expected_precision=final[1],
        expected_recall=final[2],
        curve=tuple(curve),
    )
