"""Random forests: bagged CART trees with feature subsampling."""
from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.miniml.tree import DecisionTree


@dataclass(eq=False)
class RandomForest:
    """Bagging ensemble of :class:`DecisionTree`.

    Feature subsampling is done per-tree (not per-split) so each member
    remains a plain CART tree — this keeps a compiled forest a stack of
    its trees' node tables.
    """

    n_trees: int = 10
    task: str = "classification"
    max_depth: int = 6
    min_samples_leaf: int = 8
    max_features: float | None = None  # fraction of features per tree; None = all
    seed: int = 0

    trees: list[DecisionTree] = field(default_factory=list)
    feature_subsets: list[np.ndarray] = field(default_factory=list)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForest":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        rng = np.random.default_rng(self.seed)
        n, f = X.shape
        n_sub = f if self.max_features is None else max(1, int(round(f * self.max_features)))
        if self.task == "classification":
            self._classes = np.unique(y)
        self.trees, self.feature_subsets = [], []
        for t in range(self.n_trees):
            rows = rng.integers(0, n, n)  # bootstrap
            cols = np.sort(rng.choice(f, n_sub, replace=False))
            tree = DecisionTree(
                task=self.task,
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                seed=self.seed + t,
            )
            # train on the column subset; at predict time we re-project.
            tree.fit(X[np.ix_(rows, cols)], y[rows])
            self.trees.append(tree)
            self.feature_subsets.append(cols)
        return self

    @property
    def classes_(self) -> np.ndarray:
        return self._classes

    def _mean_value(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        acc = None
        for (tree, cols), values in zip(tree_members(self), member_values(self)):
            v = values[tree.apply(X[:, cols])]
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
        members = list(zip(tree_members(self), member_values(self)))
        out = np.zeros((len(X), len(self._classes)))
        for r, x in enumerate(X):
            acc = np.zeros(len(self._classes))
            for (tree, cols), values in members:
                xi = x[cols]
                i = 0
                while tree.feature[i] != -1:
                    i = tree.left[i] if xi[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
                acc += values[i]
            out[r] = acc / self.n_trees
        return out


def tree_members(model: DecisionTree | RandomForest) -> list[tuple[DecisionTree, np.ndarray]]:
    """(tree, feature subset) per member tree: a ``DecisionTree`` is a
    forest of one member over every feature."""
    if isinstance(model, DecisionTree):
        return [(model, np.arange(model.n_features))]
    return list(zip(model.trees, model.feature_subsets))


def member_values(model: DecisionTree | RandomForest) -> list[np.ndarray]:
    """Each member tree's node-value table, one column per output of
    ``model``: a member whose bootstrap sample missed a class gets a
    zero column for it, in the place of that class among the model's
    classes. Members keep their own classes; this aligns them where the
    values are read."""
    members = tree_members(model)
    if model.task != "classification":
        return [tree.value for tree, _ in members]
    out = []
    for tree, _ in members:
        full = np.zeros((tree.n_nodes, len(model.classes_)))
        full[:, np.searchsorted(model.classes_, tree.classes_)] = tree.value
        out.append(full)
    return out


def with_members(model: DecisionTree | RandomForest, trees: list[DecisionTree],
                 subsets: list[np.ndarray]) -> DecisionTree | RandomForest:
    """``model`` with new member trees and feature subsets. A tree comes
    back as a ``DecisionTree`` (its one subset is the identity again),
    because codegen picks a predict's physical form by model type."""
    if isinstance(model, DecisionTree):
        (tree,) = trees
        return tree
    out = copy.copy(model)
    out.trees, out.feature_subsets = list(trees), list(subsets)
    return out
