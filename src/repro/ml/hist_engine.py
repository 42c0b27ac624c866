"""Level-synchronous histogram engine for the hist GBDT builder.

:class:`~repro.ml.gbdt._HistTreeBuilder` builds one gradient/hessian
histogram pair per *node*: a gather of the node's pre-offset flat bin
codes followed by two ``np.bincount`` calls, then scans each feature's
bin boundaries in a Python loop.  Per-fit cost is dominated by per-node
dispatch: at detector settings (120 trees x depth 4) one fit issues
tens of thousands of small numpy calls.  :class:`LevelHistEngine`
grows the *same tree* breadth-first, doing the per-node work for an
entire level in a handful of large array operations:

* **One bincount per level.**  Every node of a level that needs a
  directly-built histogram is packed into one composite code space,
  ``slot * total_bins + flat_code``, and a single flat
  ``np.bincount`` per gradient/hessian produces all (node, feature,
  bin) cells at once.
* **Sibling subtraction at level granularity.**  Exactly like the
  per-node builder, only the *smaller* child of each split is counted
  directly; its sibling's histogram is ``parent - child``, vectorized
  over all of the level's derived nodes in one subtraction.
* **Reused buffers.**  The level's histograms land in preallocated
  buffers that are reused across levels and boosting rounds.
* **Vectorized split search.**  The per-feature Python scan of
  ``_best_split`` becomes one cumsum + gain evaluation over the whole
  ``(n_nodes, n_features, n_bins)`` tensor and a single flat
  ``argmax`` per node.

Why the result is **bit-identical** to the per-node builder:

1. ``np.bincount`` accumulates ``out[code[i]] += w[i]`` strictly in
   element order.  Both builders keep every node's row set in
   ascending row order (the root rows are sorted and ``rows[mask]``
   partitions preserve order), and both lay the per-row codes out
   row-major.  A given (node, feature, bin) cell therefore receives
   exactly the same addends in exactly the same order either way --
   per node or packed into a level -- and IEEE float addition is
   deterministic for a fixed operand order.
2. Sibling subtraction follows the identical "smaller child is built
   directly, ties go left" rule, so every histogram in the tree is
   produced by the same chain of bincounts and subtractions.
3. The split search evaluates the same gain expression with the same
   operand order (per-segment ``cumsum``, then
   ``0.5 * (GL^2/(HL+l) + GR^2/(HR+l) - parent) - gamma``) and keeps
   the reference tie rule: first boundary within a feature
   (``argmax``), earliest feature across features (strict ``>``),
   which a single first-``argmax`` over the feature-major flattened
   tensor reproduces exactly.
4. Nodes are renumbered from BFS to the recursive builder's DFS
   preorder before freezing, so the emitted node arrays -- children,
   features, thresholds, leaf weights, gains -- and the recorded
   per-row leaf assignment are byte-for-byte equal.

The equivalence is property-tested in ``tests/ml/test_hist_engine.py``
and asserted by ``benchmarks/bench_training.py`` before any timing is
reported.
"""

from __future__ import annotations

import numpy as np

from repro.ml.gbdt import _LEAF, _BoostTree, _sample_columns


class _TreeLayout:
    """Histogram layout over one tree's sampled columns.

    Mirrors ``_HistTreeBuilder._set_columns``: per-column bin counts,
    flat bin offsets, and the pre-offset ``(n_rows, n_cols)`` flat
    codes.
    """

    __slots__ = (
        "columns", "n_bins", "offsets", "total_bins", "flat_codes",
        "max_bounds",
    )

    def __init__(
        self,
        codes: np.ndarray,
        split_points: list[np.ndarray],
        columns: np.ndarray,
    ) -> None:
        self.columns = columns
        n_bins = np.array(
            [len(split_points[j]) + 1 for j in columns], dtype=np.intp
        )
        self.n_bins = n_bins
        self.offsets = np.concatenate([[0], np.cumsum(n_bins)[:-1]])
        self.total_bins = int(n_bins.sum())
        self.flat_codes = (
            codes[:, columns].astype(np.intp) + self.offsets[np.newaxis, :]
        )
        self.max_bounds = int((n_bins - 1).max()) if len(n_bins) else 0


class _Node:
    """One node of the level currently being grown."""

    __slots__ = ("rows", "bfs", "g", "h", "needs_split", "slot")

    def __init__(self, rows: np.ndarray) -> None:
        self.rows = rows
        self.slot = -1


class LevelHistEngine:
    """Grows hist-GBDT trees level-synchronously (see module docstring).

    One engine is built per ``fit`` and reused across boosting rounds:
    the full-column code layout and the per-level histogram buffers
    persist between :meth:`build` calls.
    """

    def __init__(
        self,
        codes: np.ndarray,
        split_points: list[np.ndarray],
        max_depth: int,
        min_child_weight: float,
        reg_lambda: float,
        gamma: float,
        colsample: float,
    ) -> None:
        self.codes = codes
        self.split_points = split_points
        self.max_depth = max_depth
        self.min_child_weight = min_child_weight
        self.reg_lambda = reg_lambda
        self.gamma = gamma
        self.colsample = colsample
        self._full_layout: _TreeLayout | None = None
        # Ping-pong (grad, hess) level buffers: one holds the parents'
        # histograms while the other fills with the children's.
        self._bufs: list[tuple[np.ndarray, np.ndarray] | None] = [None, None]

    # -- layout and buffers -------------------------------------------------

    def _layout(self, columns: np.ndarray) -> _TreeLayout:
        full = len(columns) == self.codes.shape[1]
        if full and self._full_layout is not None:
            return self._full_layout
        layout = _TreeLayout(self.codes, self.split_points, columns)
        if full:
            # colsample == 1 selects every column every round; the
            # flat-code table is then invariant across trees.
            self._full_layout = layout
        return layout

    def _buffers(
        self, idx: int, n_slots: int, width: int
    ) -> tuple[np.ndarray, np.ndarray]:
        buf = self._bufs[idx]
        if (
            buf is None
            or buf[0].shape[0] < n_slots
            or buf[0].shape[1] < width
        ):
            rows = n_slots if buf is None else max(n_slots, buf[0].shape[0])
            cols = width if buf is None else max(width, buf[0].shape[1])
            buf = (np.empty((rows, cols)), np.empty((rows, cols)))
            self._bufs[idx] = buf
        return buf

    # -- histograms ---------------------------------------------------------

    def _direct_histograms(
        self,
        grad: np.ndarray,
        hess: np.ndarray,
        direct: list[_Node],
        layout: _TreeLayout,
        buf_g: np.ndarray,
        buf_h: np.ndarray,
    ) -> None:
        """Fill slots ``0..len(direct)`` of the buffers with directly
        counted histograms: one composite bincount per gradient/hessian
        over every node and column of the level."""
        n_direct = len(direct)
        if n_direct == 1:
            rows_cat = direct[0].rows
        else:
            rows_cat = np.concatenate([nd.rows for nd in direct])
        slot_rep = np.repeat(
            np.arange(n_direct, dtype=np.intp),
            [len(nd.rows) for nd in direct],
        )
        nb = layout.total_bins
        n_cols = len(layout.columns)
        # Composite code: slot-major, then the flat bins.  Row-major
        # ravel keeps every cell's addends in ascending row order,
        # exactly like the per-node bincount.
        flat = (
            layout.flat_codes[rows_cat] + slot_rep[:, np.newaxis] * nb
        ).ravel()
        size = n_direct * nb
        buf_g[:n_direct, :nb] = np.bincount(
            flat, weights=np.repeat(grad[rows_cat], n_cols), minlength=size
        ).reshape(n_direct, nb)
        buf_h[:n_direct, :nb] = np.bincount(
            flat, weights=np.repeat(hess[rows_cat], n_cols), minlength=size
        ).reshape(n_direct, nb)

    # -- split search -------------------------------------------------------

    def _search(
        self,
        G: np.ndarray,
        H: np.ndarray,
        g_sums: np.ndarray,
        h_sums: np.ndarray,
        layout: _TreeLayout,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Best (column index, boundary, gain) per node, vectorized.

        Reproduces ``_HistTreeBuilder._best_split`` exactly: the same
        per-segment cumulative sums, the same gain expression with the
        same operand order, and the same tie rule -- the feature-major
        flattened first-``argmax`` picks the earliest boundary within a
        feature and the earliest feature across equal gains, matching
        the reference's per-feature ``argmax`` plus strict ``>`` scan.
        """
        lam = self.reg_lambda
        mcw = self.min_child_weight
        n_nodes = len(g_sums)
        n_cols = len(layout.columns)
        mb = layout.max_bounds
        parent_score = g_sums * g_sums / (h_sums + lam)
        gains = np.full((n_nodes, n_cols, mb), -np.inf)
        for ci in range(n_cols):
            nb = int(layout.n_bins[ci])
            bounds = nb - 1
            if bounds == 0:
                continue
            lo = int(layout.offsets[ci])
            gl = np.cumsum(G[:, lo:lo + nb], axis=1)[:, :-1]
            hl = np.cumsum(H[:, lo:lo + nb], axis=1)[:, :-1]
            gr = g_sums[:, np.newaxis] - gl
            hr = h_sums[:, np.newaxis] - hl
            denom_l = hl + lam
            denom_r = hr + lam
            ok = (
                (hl >= mcw)
                & (hr >= mcw)
                & (denom_l > 0)
                & (denom_r > 0)
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                col_gains = 0.5 * (
                    gl * gl / denom_l
                    + gr * gr / denom_r
                    - parent_score[:, np.newaxis]
                ) - self.gamma
            col_gains[~ok] = -np.inf
            gains[:, ci, :bounds] = col_gains
        flat = gains.reshape(n_nodes, -1)
        best = np.argmax(flat, axis=1)
        best_gain = flat[np.arange(n_nodes), best]
        return best // mb, best % mb, best_gain

    # -- growth -------------------------------------------------------------

    def build(
        self,
        grad: np.ndarray,
        hess: np.ndarray,
        rows: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[_BoostTree, np.ndarray]:
        """Grow one tree; returns it plus the per-row leaf assignment
        (leaf id per row of *rows*, zero elsewhere), byte-identical to
        ``_HistTreeBuilder.build`` with the same generator state."""
        layout = self._layout(
            _sample_columns(rng, self.codes.shape[1], self.colsample)
        )
        lam = self.reg_lambda
        leaf_of_bfs = np.zeros(self.codes.shape[0], dtype=np.intp)

        # BFS node arrays; position == BFS id.
        weight: list[float] = []
        feature: list[int] = []
        threshold: list[float] = []
        split_gain: list[float] = []
        child_left: list[int] = []
        child_right: list[int] = []

        def add_node(w: float) -> int:
            bfs = len(weight)
            weight.append(w)
            feature.append(_LEAF)
            threshold.append(0.0)
            split_gain.append(0.0)
            child_left.append(_LEAF)
            child_right.append(_LEAF)
            return bfs

        level: list[_Node] = [_Node(rows)]
        #: (direct child, derived child, parent slot) per split of the
        #: previous level; "direct" is the smaller side (ties go left),
        #: exactly the per-node builder's subtraction rule.
        pairs: list[tuple[_Node, _Node, int]] = []
        prev = 0
        depth = 0
        while level:
            for nd in level:
                nd.g = float(grad[nd.rows].sum())
                nd.h = float(hess[nd.rows].sum())
                nd.bfs = add_node(-nd.g / (nd.h + lam))
                nd.needs_split = (
                    depth < self.max_depth
                    and not nd.h < 2.0 * self.min_child_weight
                )

            # Which nodes need histograms this level: every node that
            # searches for a split, plus any direct node whose derived
            # sibling searches (its counts feed the subtraction).
            direct: list[_Node] = []
            derived: list[tuple[_Node, int, _Node]] = []
            if depth == 0:
                if level[0].needs_split:
                    direct.append(level[0])
            else:
                for d_node, s_node, parent_slot in pairs:
                    if d_node.needs_split or s_node.needs_split:
                        direct.append(d_node)
                        if s_node.needs_split:
                            derived.append((s_node, parent_slot, d_node))

            search = [nd for nd in level if nd.needs_split]
            n_direct = len(direct)
            n_slots = n_direct + len(derived)
            cur = 1 - prev
            if n_slots:
                buf_g, buf_h = self._buffers(
                    cur, n_slots, layout.total_bins
                )
                for slot, nd in enumerate(direct):
                    nd.slot = slot
                self._direct_histograms(
                    grad, hess, direct, layout, buf_g, buf_h
                )
                if derived:
                    prev_g, prev_h = self._bufs[prev]
                    for slot, (nd, _, _) in enumerate(derived, n_direct):
                        nd.slot = slot
                    p_slots = np.array([p for _, p, _ in derived])
                    s_slots = np.array([s.slot for _, _, s in derived])
                    w = layout.total_bins
                    # parent - direct child, like the per-node builder.
                    buf_g[n_direct:n_slots, :w] = (
                        prev_g[p_slots, :w] - buf_g[s_slots, :w]
                    )
                    buf_h[n_direct:n_slots, :w] = (
                        prev_h[p_slots, :w] - buf_h[s_slots, :w]
                    )

            next_level: list[_Node] = []
            pairs = []
            if search and layout.max_bounds > 0:
                slots = np.array([nd.slot for nd in search], dtype=np.intp)
                w = layout.total_bins
                best_ci, best_cut, best_gain = self._search(
                    buf_g[slots, :w],
                    buf_h[slots, :w],
                    np.array([nd.g for nd in search]),
                    np.array([nd.h for nd in search]),
                    layout,
                )
                for k, nd in enumerate(search):
                    gain = float(best_gain[k])
                    if not gain > 0.0:
                        leaf_of_bfs[nd.rows] = nd.bfs
                        continue
                    col = int(layout.columns[int(best_ci[k])])
                    cut = int(best_cut[k])
                    feature[nd.bfs] = col
                    threshold[nd.bfs] = float(self.split_points[col][cut])
                    split_gain[nd.bfs] = gain
                    mask = self.codes[nd.rows, col] <= cut
                    left = _Node(nd.rows[mask])
                    right = _Node(nd.rows[~mask])
                    # Children get their BFS ids next iteration, in
                    # append order; record positions now.
                    child_left[nd.bfs] = len(weight) + len(next_level)
                    child_right[nd.bfs] = len(weight) + len(next_level) + 1
                    next_level.append(left)
                    next_level.append(right)
                    if len(left.rows) <= len(right.rows):
                        pairs.append((left, right, nd.slot))
                    else:
                        pairs.append((right, left, nd.slot))
            else:
                for nd in search:
                    leaf_of_bfs[nd.rows] = nd.bfs
            for nd in level:
                if not nd.needs_split:
                    leaf_of_bfs[nd.rows] = nd.bfs

            level = next_level
            prev = cur
            depth += 1

        return self._freeze(
            weight, feature, threshold, split_gain, child_left, child_right,
            leaf_of_bfs,
        )

    @staticmethod
    def _freeze(
        weight: list[float],
        feature: list[int],
        threshold: list[float],
        split_gain: list[float],
        child_left: list[int],
        child_right: list[int],
        leaf_of_bfs: np.ndarray,
    ) -> tuple[_BoostTree, np.ndarray]:
        """Renumber BFS nodes into the recursive builder's DFS preorder
        and freeze the flat arrays (byte-identical layout)."""
        n_nodes = len(weight)
        bfs_left = np.array(child_left, dtype=np.int64)
        bfs_right = np.array(child_right, dtype=np.int64)
        order = np.empty(n_nodes, dtype=np.int64)
        dfs_of = np.empty(n_nodes, dtype=np.int64)
        stack = [0]
        k = 0
        while stack:
            bfs = stack.pop()
            order[k] = bfs
            dfs_of[bfs] = k
            k += 1
            if bfs_left[bfs] != _LEAF:
                stack.append(int(bfs_right[bfs]))
                stack.append(int(bfs_left[bfs]))
        re_left = bfs_left[order]
        re_right = bfs_right[order]
        internal = re_left != _LEAF
        children_left = np.full(n_nodes, _LEAF, dtype=np.int64)
        children_left[internal] = dfs_of[re_left[internal]]
        children_right = np.full(n_nodes, _LEAF, dtype=np.int64)
        children_right[internal] = dfs_of[re_right[internal]]
        tree = _BoostTree(
            children_left=children_left,
            children_right=children_right,
            feature=np.array(feature, dtype=np.int64)[order],
            threshold=np.array(threshold, dtype=np.float64)[order],
            leaf_weight=np.array(weight, dtype=np.float64)[order],
            split_gain=np.array(split_gain, dtype=np.float64)[order],
        )
        # Rows outside the tree keep 0; BFS root is 0 and maps to DFS 0.
        leaf_of = dfs_of[leaf_of_bfs].astype(np.intp, copy=False)
        return tree, leaf_of
