"""Random forests: bagged CART trees with feature subsampling."""
from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.miniml.tree import LEAF, DecisionTree


@dataclass(eq=False)
class RandomForest:
    """Bagging ensemble of :class:`DecisionTree`.

    Feature subsampling is done per-tree (not per-split) so each member
    remains a plain CART tree — this keeps a compiled forest a stack of
    its trees' node tables. ``fit`` stores every member in the forest's
    feature and class space: its splits index the forest's features,
    and its ``value`` has one column per forest class, zero for a class
    its bootstrap sample missed. A member reads like a lone tree.
    """

    n_trees: int = 10
    task: str = "classification"
    max_depth: int = 6
    min_samples_leaf: int = 8
    max_features: float | None = None  # fraction of features per tree; None = all
    seed: int = 0

    trees: list[DecisionTree] = field(default_factory=list)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        rng = np.random.default_rng(self.seed)
        n, f = X.shape
        n_sub = f if self.max_features is None else max(1, int(round(f * self.max_features)))
        if self.task == "classification":
            self._classes = np.unique(y)
        self.trees = []
        for t in range(self.n_trees):
            rows = rng.integers(0, n, n)  # bootstrap
            cols = np.sort(rng.choice(f, n_sub, replace=False))
            tree = DecisionTree(
                task=self.task,
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                seed=self.seed + t,
            )
            tree.fit(X[np.ix_(rows, cols)], y[rows])
            # into the forest's spaces: a leaf stays LEAF (cols[-1] is
            # a valid index, so it must not be remapped)
            split = tree.feature != LEAF
            tree.feature[split] = cols[tree.feature[split]]
            tree.n_features = f
            if self.task == "classification":
                value = np.zeros((tree.n_nodes, len(self._classes)))
                value[:, np.searchsorted(self._classes, tree.classes_)] = tree.value
                tree.value, tree.n_outputs = value, len(self._classes)
                tree._classes = self._classes
            self.trees.append(tree)
        return self

    @property
    def classes_(self) -> np.ndarray:
        return self._classes

    def _mean_value(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        acc = None
        for tree in self.trees:
            v = tree.predict_value(X)
            acc = v if acc is None else acc + v
        return acc / self.n_trees

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.task != "classification":
            raise ValueError("predict_proba is classification-only")
        return self._mean_value(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        v = self._mean_value(X)
        if self.task == "classification":
            return self._classes[np.argmax(v, axis=1)]
        return v[:, 0]

    def predict_proba_rows(self, X: np.ndarray) -> np.ndarray:
        """Per-sample traversal (one tree walk per row per tree) — the
        classical-framework execution style; used as the interpreted
        baseline bracket in the NN-translation experiment."""
        X = np.asarray(X, dtype=np.float64)
        out = np.zeros((len(X), len(self._classes)))
        for r, x in enumerate(X):
            acc = np.zeros(len(self._classes))
            for tree in self.trees:
                i = 0
                while tree.feature[i] != LEAF:
                    i = tree.left[i] if x[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
                acc += tree.value[i]
            out[r] = acc / self.n_trees
        return out


def tree_members(model: DecisionTree | RandomForest) -> list[DecisionTree]:
    """The member trees: a ``DecisionTree`` is a forest of one."""
    if isinstance(model, DecisionTree):
        return [model]
    return list(model.trees)


def with_members(model: DecisionTree | RandomForest,
                 trees: list[DecisionTree]) -> DecisionTree | RandomForest:
    """``model`` with new member trees. A tree comes back as a
    ``DecisionTree``, because codegen picks a predict's physical form
    by model type."""
    if isinstance(model, DecisionTree):
        (tree,) = trees
        return tree
    out = copy.copy(model)
    out.trees = list(trees)
    return out
