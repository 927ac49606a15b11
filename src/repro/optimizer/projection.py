"""Model-projection pushdown (§4.1): a model-to-data cross-IR
optimization. Features the model provably ignores — exactly-zero
weights from L1 regularization, or tree features no split tests —
are removed from the model *and* projected out of the data plan.

The data-side effect happens via the relational ``PruneColumns`` rule:
shrinking ``pipeline.input_cols`` here shrinks the required-column set
there, which trims scans and can eliminate whole joins ("the relational
optimizer can drop joins if one of the joining relations no longer
provides features needed by the model").
"""
from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np

from repro.ir import PlanNode
from repro.ir.ops import MLPredict
from repro.ir.plan import Catalog
from repro.miniml.forest import RandomForest, tree_members, with_members
from repro.miniml.linear import LinearRegression, LogisticRegressionL1
from repro.miniml.pipeline import Pipeline
from repro.miniml.tree import LEAF, DecisionTree
from repro.optimizer.rules import Rule


def drop_linear_features(pipe: Pipeline, names: set[str]) -> Pipeline:
    """A linear-model pipeline without the features in ``names``: the
    featurizer drops them, and the model keeps the other weights."""
    new_feat, keep = pipe.featurizer.drop_features(names)
    model = copy.deepcopy(pipe.model)
    model.coef_ = pipe.model.coef_[keep]
    return Pipeline(new_feat, model)


def shrink_linear(pipe: Pipeline) -> tuple[Pipeline, bool]:
    """Drop zero-weight features from a linear-model pipeline."""
    zero = pipe.model.coef_ == 0.0
    if not zero.any():
        return pipe, False
    names = pipe.featurizer.feature_names
    return drop_linear_features(pipe, {names[i] for i in np.nonzero(zero)[0]}), True


def shrink_trees(pipe: Pipeline) -> tuple[Pipeline, bool]:
    """Drop features no split of any member tree tests (a tree is a
    forest of one member)."""
    trees = tree_members(pipe.model)
    used = {int(f) for tree in trees for f in tree.feature if f != LEAF}
    names = pipe.featurizer.feature_names
    unused = {names[i] for i in range(len(names)) if i not in used}
    if not unused:
        return pipe, False
    new_feat, keep = pipe.featurizer.drop_features(unused)
    old_to_new = np.full(len(names), LEAF, dtype=np.int64)
    old_to_new[keep] = np.arange(len(keep))
    shrunk = []
    for tree in trees:
        t = copy.copy(tree)
        t.feature = np.where(tree.feature == LEAF, LEAF, old_to_new[tree.feature])
        t.n_features = len(keep)
        shrunk.append(t)
    return Pipeline(new_feat, with_members(pipe.model, shrunk)), True


def shrink_pipeline(pipe: Pipeline) -> tuple[Pipeline, bool]:
    if isinstance(pipe.model, (LogisticRegressionL1, LinearRegression)):
        return shrink_linear(pipe)
    if isinstance(pipe.model, (DecisionTree, RandomForest)):
        return shrink_trees(pipe)
    return pipe, False


class ModelProjectionPushdown(Rule):
    """Shrink every MLPredict's pipeline to its provably-used features."""

    name = "model_projection_pushdown"

    def rewrite(self, node: PlanNode, catalog: Catalog) -> PlanNode:
        if not (isinstance(node, MLPredict) and isinstance(node.pipeline, Pipeline)):
            return node
        new_pipe, changed = shrink_pipeline(node.pipeline)
        return replace(node, pipeline=new_pipe) if changed else node
