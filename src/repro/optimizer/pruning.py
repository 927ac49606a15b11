"""Predicate-based model pruning (§4.1): a data-to-model cross-IR
optimization. Predicates below a predict operator constrain the rows
the model will ever see, so the model can be specialized:

* **decision trees / forests**: a split whose outcome is implied by the
  constraints collapses to the taken subtree (``pregnant=1`` removes
  the non-pregnant branch → 29% faster scoring in the paper);
* **one-hot blocks under linear models**: an equality predicate on a
  categorical column makes the whole block constant; its weights fold
  into the intercept and the features disappear (~2.1× in the paper,
  independent of selectivity — the win is the dropped features);
* scaled numeric features: constraints are transported through the
  scaler's affine map, so pruning still applies after standardization.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.ir import Constraint, PlanNode
from repro.ir.ops import MLPredict
from repro.ir.plan import Catalog
from repro.miniml.forest import RandomForest, tree_members, with_members
from repro.miniml.linear import LinearRegression, LogisticRegressionL1
from repro.miniml.pipeline import Pipeline
from repro.miniml.tree import DecisionTree
from repro.optimizer.projection import drop_linear_features
from repro.optimizer.relational import gather_constraints
from repro.optimizer.rules import Rule


def prune_tree(tree: DecisionTree, constraints: dict[int, Constraint]) -> DecisionTree:
    """Rebuild ``tree`` dropping branches unreachable under per-feature
    ``constraints`` (keyed by feature index)."""

    def taken(i: int) -> int | None:
        c = constraints.get(int(tree.feature[i]))
        if c is not None and c.implies_le(float(tree.threshold[i])):
            return tree.left[i]
        if c is not None and c.implies_gt(float(tree.threshold[i])):
            return tree.right[i]
        return None

    return tree.rebuild(taken)


def _feature_constraints(pipe: Pipeline, col_constraints: dict) -> dict[int, Constraint]:
    """Map column-level constraints to feature-index constraints,
    transporting numeric bounds through the scaler's affine map
    (z = (x - mean)/scale, scale > 0, so order is preserved)."""
    feat = pipe.featurizer
    out: dict[int, Constraint] = {}
    for idx, spec in enumerate(feat.feature_specs):
        if spec[0] != "num":
            continue
        col = spec[1]
        c = col_constraints.get(col)
        if c is None:
            continue
        if feat.scaler is not None:
            j = feat.numeric_cols.index(col)
            m, s = feat.scaler.mean_[j], feat.scaler.scale_[j]

            def tx(v: float) -> float:
                return (v - m) / s if np.isfinite(v) else v

            eq = c.eq
            if eq is not None and isinstance(eq, (int, float)) and not isinstance(eq, bool):
                eq = tx(float(eq))
            out[idx] = Constraint(
                lo=tx(c.lo), lo_strict=c.lo_strict,
                hi=tx(c.hi), hi_strict=c.hi_strict, eq=eq,
            )
        else:
            out[idx] = c
    return out


def prune_pipeline(pipe: Pipeline, col_constraints: dict) -> tuple[Pipeline, bool]:
    """Specialize a pipeline under column constraints. Returns
    (new pipeline, changed?)."""
    model = pipe.model

    # 1. categorical equality → fold one-hot block (linear models): on
    #    rows with col == v the block is constant, 1 at ``col=v`` and 0
    #    elsewhere, so its weights fold into the intercept
    if isinstance(model, (LogisticRegressionL1, LinearRegression)):
        feat = pipe.featurizer
        names = feat.feature_names
        bias, bound = model.intercept_, set()
        for col in feat.categorical_cols:
            c = col_constraints.get(col)
            if c is None or c.eq is None:
                continue
            block = [(f"{col}={v}", 1.0 if v == c.eq else 0.0)
                     for v in feat.encoders[col].categories_]
            bias = bias + sum(model.coef_[names.index(name)] * x for name, x in block)
            bound.update(name for name, _ in block)
        if not bound:
            return pipe, False
        folded = drop_linear_features(pipe, bound)
        folded.model.intercept_ = float(bias)
        return folded, True

    # 2. numeric interval constraints → tree branch pruning
    #    (a tree is a forest of one member)
    fc = _feature_constraints(pipe, col_constraints)
    if fc and isinstance(model, (DecisionTree, RandomForest)):
        trees = tree_members(model)
        pruned = [prune_tree(tree, fc) for tree in trees]
        if any(pt.n_nodes < tree.n_nodes for pt, tree in zip(pruned, trees)):
            return Pipeline(pipe.featurizer, with_members(model, pruned)), True
    return pipe, False


class PredicateBasedModelPruning(Rule):
    """For every MLPredict, gather the constraints implied by filters in
    its input subtree and specialize the pipeline."""

    name = "predicate_based_model_pruning"

    def rewrite(self, node: PlanNode, catalog: Catalog) -> PlanNode:
        if not (isinstance(node, MLPredict) and isinstance(node.pipeline, Pipeline)):
            return node
        new_pipe, changed = prune_pipeline(node.pipeline, gather_constraints(node.child))
        return replace(node, pipeline=new_pipe) if changed else node
