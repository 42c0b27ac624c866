"""Masked per-level traversal: the bit-identity reference for
:meth:`repro.ml.tree.DecisionTreeClassifier.predict_proba`."""

from __future__ import annotations

import numpy as np

from repro.ml.tree import _LEAF


def leaf_values(model, X: np.ndarray) -> np.ndarray:
    """Return P(fraud) at the leaf reached by each row of X.

    Masked per-level traversal, kept as the bit-identity reference
    for the packed scoring path used by ``predict_proba``.
    """
    model._check_n_features(X)
    n = X.shape[0]
    node = np.zeros(n, dtype=np.int64)
    active = np.arange(n)
    while len(active):
        cur = node[active]
        internal = model.feature_[cur] != _LEAF
        active = active[internal]
        if len(active) == 0:
            break
        cur = node[active]
        feat = model.feature_[cur]
        thr = model.threshold_[cur]
        go_left = X[active, feat] <= thr
        node[active] = np.where(
            go_left, model.children_left_[cur], model.children_right_[cur]
        )
    return model.value_[node]
