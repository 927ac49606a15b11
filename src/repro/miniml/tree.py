"""CART decision trees (classification and regression).

Trees are stored in flat arrays (``feature``, ``threshold``, ``left``,
``right``, ``value``) rather than linked nodes, which makes three things
cheap: vectorized prediction, structural rewrites (predicate-based
pruning builds a new array tree), and compilation to node tables for
a batched tree traversal (onnxlite.convert). Convention: a row goes **left** when
``x[feature] <= threshold``. ``feature == -1`` marks a leaf.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

LEAF = -1


@dataclass(eq=False)
class DecisionTree:
    """A binary CART tree over a dense float feature matrix.

    ``value[n]`` holds the node's prediction: class-probability vector
    for classification (``n_outputs = n_classes``) or a length-1 mean
    for regression. Internal nodes carry values too (used as fallbacks
    when pruning collapses a subtree).
    """

    task: str = "classification"  # or "regression"
    max_depth: int = 6
    min_samples_leaf: int = 8
    min_impurity_decrease: float = 0.0
    seed: int = 0

    n_features: int = 0
    n_outputs: int = 0
    feature: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    threshold: np.ndarray = field(default_factory=lambda: np.zeros(0))
    left: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    right: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    value: np.ndarray = field(default_factory=lambda: np.zeros((0, 1)))

    # ------------------------------------------------------------- fit
    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTree":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        self.n_features = X.shape[1]
        if self.task == "classification":
            self._classes = np.unique(y)
            self.n_outputs = len(self._classes)
            y_enc = np.searchsorted(self._classes, y)
        else:
            self.n_outputs = 1
            y_enc = y.astype(np.float64)

        nodes: list[dict] = []

        def leaf_value(idx: np.ndarray) -> np.ndarray:
            if self.task == "classification":
                counts = np.bincount(y_enc[idx], minlength=self.n_outputs)
                return counts / max(1, counts.sum())
            return np.array([y_enc[idx].mean()])

        def impurity(idx: np.ndarray) -> float:
            if self.task == "classification":
                p = np.bincount(y_enc[idx], minlength=self.n_outputs) / len(idx)
                return 1.0 - np.sum(p * p)  # gini
            v = y_enc[idx]
            return float(v.var())

        def best_split(idx: np.ndarray) -> tuple[int, float, float] | None:
            n = len(idx)
            parent_imp = impurity(idx)
            best = None
            best_gain = self.min_impurity_decrease

            def improves(gain: float) -> bool:
                # strict improvement with a relative tolerance: exact
                # ties (e.g. a proxy feature inducing the identical
                # partition) keep the earliest feature, deterministically
                return gain > best_gain + 1e-12 + 1e-9 * abs(best_gain)
            Xi, yi = X[idx], y_enc[idx]
            for f in range(self.n_features):
                order = np.argsort(Xi[:, f], kind="stable")
                xs, ys = Xi[order, f], yi[order]
                # candidate split points: midpoints between distinct values
                distinct = np.nonzero(np.diff(xs) > 1e-12)[0]
                if len(distinct) == 0:
                    continue
                if self.task == "classification":
                    onehot = np.zeros((n, self.n_outputs))
                    onehot[np.arange(n), ys] = 1.0
                    cum = np.cumsum(onehot, axis=0)
                    total = cum[-1]
                    for cut in distinct:
                        nl = cut + 1
                        nr = n - nl
                        if nl < self.min_samples_leaf or nr < self.min_samples_leaf:
                            continue
                        pl = cum[cut] / nl
                        pr = (total - cum[cut]) / nr
                        gini_l = 1.0 - np.sum(pl * pl)
                        gini_r = 1.0 - np.sum(pr * pr)
                        gain = parent_imp - (nl * gini_l + nr * gini_r) / n
                        if improves(gain):
                            best_gain = gain
                            best = (f, (xs[cut] + xs[cut + 1]) / 2.0, gain)
                else:
                    cs = np.cumsum(ys)
                    cs2 = np.cumsum(ys * ys)
                    for cut in distinct:
                        nl = cut + 1
                        nr = n - nl
                        if nl < self.min_samples_leaf or nr < self.min_samples_leaf:
                            continue
                        sl, sl2 = cs[cut], cs2[cut]
                        sr, sr2 = cs[-1] - sl, cs2[-1] - sl2
                        var_l = sl2 / nl - (sl / nl) ** 2
                        var_r = sr2 / nr - (sr / nr) ** 2
                        gain = parent_imp - (nl * var_l + nr * var_r) / n
                        if improves(gain):
                            best_gain = gain
                            best = (f, (xs[cut] + xs[cut + 1]) / 2.0, gain)
            return best

        def build(idx: np.ndarray, depth: int) -> int:
            node_id = len(nodes)
            nodes.append(
                {
                    "feature": LEAF,
                    "threshold": 0.0,
                    "left": LEAF,
                    "right": LEAF,
                    "value": leaf_value(idx),
                }
            )
            if depth >= self.max_depth or len(idx) < 2 * self.min_samples_leaf:
                return node_id
            split = best_split(idx)
            if split is None:
                return node_id
            f, t, _ = split
            mask = X[idx, f] <= t
            nodes[node_id]["feature"] = f
            nodes[node_id]["threshold"] = t
            nodes[node_id]["left"] = build(idx[mask], depth + 1)
            nodes[node_id]["right"] = build(idx[~mask], depth + 1)
            return node_id

        build(np.arange(len(X)), 0)
        self.feature = np.array([n["feature"] for n in nodes], dtype=np.int64)
        self.threshold = np.array([n["threshold"] for n in nodes])
        self.left = np.array([n["left"] for n in nodes], dtype=np.int64)
        self.right = np.array([n["right"] for n in nodes], dtype=np.int64)
        self.value = np.stack([n["value"] for n in nodes])
        return self

    # --------------------------------------------------------- predict
    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        return int(np.sum(self.feature == LEAF))

    @property
    def depth(self) -> int:
        def d(i: int) -> int:
            if self.feature[i] == LEAF:
                return 0
            return 1 + max(d(self.left[i]), d(self.right[i]))

        return d(0)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Vectorized leaf-index lookup (level-synchronous descent)."""
        X = np.asarray(X, dtype=np.float64)
        node = np.zeros(len(X), dtype=np.int64)
        active = self.feature[node] != LEAF
        while active.any():
            idx = np.nonzero(active)[0]
            cur = node[idx]
            go_left = X[idx, self.feature[cur]] <= self.threshold[cur]
            node[idx] = np.where(go_left, self.left[cur], self.right[cur])
            active[idx] = self.feature[node[idx]] != LEAF
        return node

    def predict_value(self, X: np.ndarray) -> np.ndarray:
        """Per-row leaf value matrix (probabilities or regression mean)."""
        return self.value[self.apply(X)]

    def predict(self, X: np.ndarray) -> np.ndarray:
        vals = self.predict_value(X)
        if self.task == "classification":
            return self._classes[np.argmax(vals, axis=1)]
        return vals[:, 0]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.task != "classification":
            raise ValueError("predict_proba is classification-only")
        return self.predict_value(X)

    def predict_row(self, x: np.ndarray):
        """Single-row python traversal — the per-tuple inference baseline."""
        i = 0
        while self.feature[i] != LEAF:
            i = self.left[i] if x[self.feature[i]] <= self.threshold[i] else self.right[i]
        if self.task == "classification":
            return self._classes[int(np.argmax(self.value[i]))]
        return float(self.value[i, 0])

    @property
    def classes_(self) -> np.ndarray:
        return self._classes

    # ------------------------------------------------- structural utils
    def rebuild(self, taken: Callable[[int], int | None]) -> "DecisionTree":
        """Preorder copy of the tree. At a split ``i`` whose outcome is
        known, ``taken(i)`` returns the child every row takes, and only
        that child is copied in its place; it returns None where both
        children stay."""
        keep: list[int] = []
        left: list[int] = []
        right: list[int] = []

        def visit(i: int) -> int:
            while self.feature[i] != LEAF and (j := taken(i)) is not None:
                i = int(j)
            nid = len(keep)
            keep.append(i)
            left.append(LEAF)
            right.append(LEAF)
            if self.feature[i] != LEAF:
                left[nid] = visit(int(self.left[i]))
                right[nid] = visit(int(self.right[i]))
            return nid

        visit(0)
        t = replace(self, feature=self.feature[keep], threshold=self.threshold[keep],
                    left=np.array(left, dtype=np.int64), right=np.array(right, dtype=np.int64),
                    value=self.value[keep])
        if self.task == "classification":
            t._classes = self._classes
        return t
