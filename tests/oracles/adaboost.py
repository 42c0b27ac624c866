"""Per-stump voting loop: the bit-identity reference for
:meth:`repro.ml.adaboost.AdaBoostClassifier.decision_function`."""

from __future__ import annotations

import numpy as np

from repro.ml.base import check_array


def decision_function_reference(model, X) -> np.ndarray:
    """Per-stump voting loop, kept as the packed path's bit-identity
    reference."""
    X_arr = check_array(X)
    model._check_n_features(X_arr)
    total = np.zeros(X_arr.shape[0], dtype=np.float64)
    weight_sum = 0.0
    for stump, alpha in zip(model.estimators_, model.estimator_weights_):
        pred_signs = np.where(stump.predict(X_arr) == 1, 1.0, -1.0)
        total += alpha * pred_signs
        weight_sum += alpha
    if weight_sum > 0:
        total /= weight_sum
    return total
