"""Model/query splitting (§2): partition a tree model at its root split
into two cheaper models, turning the plan into a UNION of two branches
that can then be optimized independently (the paper notes the left
branch of the running example becomes cheap enough to inline, and its
join with prenatal_tests can be dropped).

The split predicate is expressed over the *raw* column, with the
exact threshold preimage that inlining uses
(``TableFeaturizer.raw_split``), so each branch's Filter is a plain
relational predicate — which predicate-based pruning then consumes to
specialize each branch's model further. A NULL in the split column
goes right, as NaN does in ``DecisionTree.apply``: the right branch is
``NOT(col <= t) OR col IS NULL``, so the UNION keeps every row.
"""
from __future__ import annotations

import copy

from repro.ir import Cmp, Col, Filter, IsNull, Lit, Not, Or, PlanNode, Union
from repro.ir.ops import MLPredict
from repro.ir.plan import Catalog
from repro.miniml.pipeline import Pipeline
from repro.miniml.tree import LEAF, DecisionTree
from repro.optimizer.rules import Rule


def split_predict(node: MLPredict) -> Union | None:
    """Split one tree-backed MLPredict at its root. Returns None when
    not applicable (non-tree model, leaf-only tree, categorical root)."""
    pipe = node.pipeline
    if not (isinstance(pipe, Pipeline) and isinstance(pipe.model, DecisionTree)):
        return None
    tree: DecisionTree = pipe.model
    if tree.feature[0] == LEAF:
        return None
    try:
        col, t = pipe.featurizer.raw_split(int(tree.feature[0]), float(tree.threshold[0]))
    except ValueError:
        return None

    left_pipe = Pipeline(copy.deepcopy(pipe.featurizer), tree.subtree(int(tree.left[0])))
    right_pipe = Pipeline(copy.deepcopy(pipe.featurizer), tree.subtree(int(tree.right[0])))
    pred = Cmp("<=", Col(col), Lit(float(t)))

    left = copy.copy(node)
    left.child = Filter(node.child, pred)
    left.pipeline = left_pipe
    right = copy.copy(node)
    right.child = Filter(node.child, Or(Not(pred), IsNull(Col(col))))
    right.pipeline = right_pipe
    return Union([left, right])


class ModelQuerySplitting(Rule):
    """Split the first splittable tree MLPredict at its root, once per
    ``optimize()`` call."""

    name = "model_query_splitting"

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self._split = False

    def rewrite(self, node: PlanNode, catalog: Catalog) -> PlanNode:
        if self._split or not isinstance(node, MLPredict):
            return node
        split = split_predict(node)
        if split is None:
            return node
        self._split = True
        return split
