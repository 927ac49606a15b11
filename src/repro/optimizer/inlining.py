"""Model inlining (§4.2): translate ML operators into SQL expressions
so the relational engine executes them (no data movement, relational
optimizer sees through them, whole-stage codegen compiles them).
``predict_sql`` is the one place that decides which predicts run in
this form; codegen and the NN translation rule both ask it.

* Decision trees become nested ``CASE WHEN col <= x THEN ... END``.
  ``TableFeaturizer.raw_split`` maps each split over a standardized
  feature to its exact preimage on the raw column, the largest ``x``
  whose scaled value is at most the threshold, so the generated SQL
  reads raw columns and routes every row as miniml does. A NULL fails
  every ``<=`` and takes the ELSE (right) branch, as NaN does in
  ``DecisionTree.apply``.
* Linear/logistic models become an arithmetic expression. Each one-hot
  block becomes one map lookup, ``coalesce(element_at(map_from_arrays(
  keys, weights), col), 0)``: an unseen or NULL category gathers 0, as
  the one-hot encoder's all-zero row does. A NULL numeric makes the
  score NULL, which is what the pipeline's NaN score comes back as.

This is the paper's SQL Server UDF-inlining path (Froid [32]): we skip
the intermediate UDF and emit the inlined scalar expression directly —
Spark's Catalyst then optimizes/compiles it exactly as Froid intends.
"""
from __future__ import annotations

import numpy as np

from repro.ir.expr import sql_double
from repro.ir.ops import MLPredict
from repro.miniml.linear import LinearRegression, LogisticRegressionL1
from repro.miniml.pipeline import Pipeline
from repro.miniml.tree import LEAF, DecisionTree


def _key(v) -> str:
    """SQL literal of a category, typed like the column it was fitted
    on: Spark's ``element_at`` needs the map key type to match."""
    if isinstance(v, str):
        return "'" + v.replace("'", "''") + "'"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return sql_double(v)


def tree_to_sql(tree: DecisionTree, feat, kind: str = "label") -> str:
    """Nested CASE WHEN expression computing the tree's prediction."""
    if kind not in ("label", "proba"):
        raise ValueError(f"a tree has no {kind!r} output")

    def leaf_sql(i: int) -> str:
        if tree.task == "classification":
            if kind == "proba":
                return sql_double(tree.value[i, 1])
            cls = tree.classes_[int(np.argmax(tree.value[i]))]
            return sql_double(float(cls))
        return sql_double(tree.value[i, 0])

    def rec(i: int) -> str:
        if tree.feature[i] == LEAF:
            return leaf_sql(i)
        col, t = feat.raw_split(int(tree.feature[i]), float(tree.threshold[i]))
        return (
            f"CASE WHEN {col} <= {sql_double(t)} THEN {rec(int(tree.left[i]))} "
            f"ELSE {rec(int(tree.right[i]))} END"
        )

    return rec(0)


def linear_to_sql(model, feat, kind: str = "score") -> str:
    """w·x + b over raw columns; each one-hot block is one map lookup."""
    terms = [sql_double(model.intercept_)]
    blocks: dict[str, list[tuple[object, float]]] = {}
    for idx, spec in enumerate(feat.feature_specs):
        w = float(model.coef_[idx])
        if w == 0.0:
            continue
        if spec[0] == "num":
            col = spec[1]
            if feat.scaler is not None:
                j = feat.numeric_cols.index(col)
                m, s = feat.scaler.mean_[j], feat.scaler.scale_[j]
                terms.append(f"({sql_double(w)} * (({col} - {sql_double(m)}) / {sql_double(s)}))")
            else:
                terms.append(f"({sql_double(w)} * {col})")
        else:
            blocks.setdefault(spec[1], []).append((spec[2], w))
    for col, entries in blocks.items():
        keys = ", ".join(_key(cat) for cat, _ in entries)
        weights = ", ".join(sql_double(w) for _, w in entries)
        terms.append(
            f"coalesce(element_at(map_from_arrays(array({keys}), array({weights})), "
            f"{col}), 0.0E0)"
        )
    score = "(" + " + ".join(terms) + ")"
    if kind == "score":
        return score
    if kind == "proba":
        return f"(1.0E0 / (1.0E0 + EXP(-{score})))"
    if kind == "label":
        return f"(CASE WHEN {score} > 0.0E0 THEN 1.0E0 ELSE 0.0E0 END)"
    raise ValueError(f"bad kind {kind!r}")


def inline_pipeline_sql(pipe: Pipeline, kind: str) -> str:
    """The pipeline's ``kind`` output as one SQL expression. Raises
    TypeError for a model with no SQL form, and ValueError for a tree
    that splits on a one-hot feature."""
    model = pipe.model
    if isinstance(model, DecisionTree):
        return tree_to_sql(model, pipe.featurizer, kind=kind)
    if isinstance(model, (LogisticRegressionL1, LinearRegression)):
        k = "score" if isinstance(model, LinearRegression) else kind
        return linear_to_sql(model, pipe.featurizer, kind=k)
    raise TypeError(f"cannot inline {type(model).__name__}")


def predict_sql(node) -> str | None:
    """The SQL form of ``node``, or None when it has none: the one place
    that decides a predict's physical form. An ``MLPredict`` of a tree
    (numeric splits only) or of a linear or logistic model has one, so
    codegen selects it over the child and ``NNTranslation`` leaves it
    alone; forests, MLPs, trees with a one-hot split, graphs and
    clustered models have none and run in one ``mapInPandas`` wave.

    ``tools/inline_probe.py`` measured the forms (250K rows, ``local[4]``
    on a 4-vCPU Xeon, median of 5 runs, Python / graph / inlined): the
    Fig. 1 depth-6 tree 0.84 / 0.91 / 0.30 s, the flights LR 0.86 /
    0.86 / 0.34 s. The graph pays the same Python wave as the pipeline,
    so a model with an SQL form runs as SQL."""
    if not (isinstance(node, MLPredict) and isinstance(node.pipeline, Pipeline)):
        return None
    try:
        return inline_pipeline_sql(node.pipeline, node.kind)
    except (TypeError, ValueError):
        return None
