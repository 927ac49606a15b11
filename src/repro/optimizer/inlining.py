"""Model inlining (§4.2): translate ML operators into SQL expressions
so the relational engine executes them (no data movement, relational
optimizer sees through them, whole-stage codegen compiles them).
``predict_sql`` decides which predicts run in this form; codegen asks
it.

* Decision trees become nested ``CASE WHEN col <= x THEN ... END``.
  ``TableFeaturizer.raw_split`` maps each split over a standardized
  feature to its exact preimage on the raw column, the largest ``x``
  whose scaled value is at most the threshold, so the generated SQL
  reads raw columns and routes every row as miniml does. A NULL fails
  every ``<=`` and takes the ELSE (right) branch, as NaN does in
  ``DecisionTree.apply``. A split on a one-hot feature becomes
  ``col IS DISTINCT FROM cat``, which a NULL or unseen category passes
  (left), as its all-zero one-hot row does.
* Random forests become the sum of their members' CASE expressions in
  tree order over ``n_trees``: the same double arithmetic as
  ``RandomForest``, so the outputs are identical.
* Linear/logistic models become an arithmetic expression. Each one-hot
  block becomes one map lookup, ``coalesce(element_at(map_from_arrays(
  keys, weights), col), 0)``: an unseen or NULL category gathers 0, as
  the one-hot encoder's all-zero row does. A NULL numeric makes the
  score NULL, which is what the pipeline's NaN score comes back as. A
  NaN score, or a NULL one, labels 0.

This is the paper's SQL Server UDF-inlining path (Froid [32]): we skip
the intermediate UDF and emit the inlined scalar expression directly —
Spark's Catalyst then optimizes/compiles it exactly as Froid intends.
"""
from __future__ import annotations

import numpy as np

from repro.ir.expr import Lit, sql_double
from repro.ir.ops import MLPredict
from repro.miniml.forest import RandomForest, tree_members
from repro.miniml.linear import LinearRegression, LogisticRegressionL1
from repro.miniml.pipeline import Pipeline
from repro.miniml.tree import LEAF, DecisionTree


def _split_sql(feat, spec: tuple, feature_idx: int, t: float) -> str:
    """The condition that sends a row left at split ``z <= t``. A
    numeric feature reads its raw column through ``raw_split``. A
    one-hot feature *(col, cat)* is 1 exactly when ``col`` equals
    ``cat``, so for ``0 <= t < 1`` a row goes left when ``col IS
    DISTINCT FROM cat``: a NULL or unseen category, whose one-hot row
    is all zeros, goes left too."""
    if spec[0] == "num":
        col, x = feat.raw_split(feature_idx, t)
        return f"{col} <= {sql_double(x)}"
    if t >= 1.0:
        return "TRUE"
    if t < 0.0:
        return "FALSE"
    return f"{spec[1]} IS DISTINCT FROM {Lit(spec[2]).to_sql()}"


def tree_to_sql(model: DecisionTree | RandomForest, feat, kind: str = "label") -> str:
    """The ``kind`` output of a tree or forest as nested CASE WHEN
    expressions over raw columns, one per member tree. A forest's
    output is the sum of its members' values in tree order divided by
    ``n_trees``, as ``RandomForest`` computes it, so the SQL is exact:
    ``proba`` reads column 1 of that mean, a regression ``label``
    column 0, and a binary classifier's ``label`` compares the two
    class means, the first class winning a tie as ``argmax`` does. A
    tree's classifier ``label`` is one class literal per leaf. Raises
    ValueError for an output with no such form (``score``, ``proba`` of
    a regressor, ``label`` of a forest over more than two classes)."""
    classify = model.task == "classification"
    if kind not in ("label", "proba") or (
            kind == "proba" and not (classify and len(model.classes_) > 1)):
        raise ValueError(f"this {model.task} model has no {kind!r} SQL form")
    specs = feat.feature_specs

    def case(tree: DecisionTree, leaf) -> str:
        def rec(i: int) -> str:
            if tree.feature[i] == LEAF:
                return leaf(i)
            f = int(tree.feature[i])
            cond = _split_sql(feat, specs[f], f, float(tree.threshold[i]))
            return (f"CASE WHEN {cond} THEN {rec(int(tree.left[i]))} "
                    f"ELSE {rec(int(tree.right[i]))} END")

        return rec(0)

    if isinstance(model, DecisionTree):
        if classify and kind == "label":
            return case(model, lambda i: sql_double(
                float(model.classes_[int(np.argmax(model.value[i]))])))
        j = 1 if kind == "proba" else 0
        return case(model, lambda i: sql_double(model.value[i, j]))

    def mean(j: int) -> str:
        total = " + ".join(case(tree, lambda i, v=tree.value: sql_double(v[i, j]))
                           for tree in model.trees)
        return f"(({total}) / {sql_double(model.n_trees)})"

    if kind == "proba":
        return mean(1)
    if not classify:
        return mean(0)
    if len(model.classes_) != 2:
        raise ValueError("a forest label over more than two classes has no SQL form")
    c0, c1 = (sql_double(float(c)) for c in model.classes_)
    return f"(CASE WHEN {mean(1)} > {mean(0)} THEN {c1} ELSE {c0} END)"


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
        # each key is typed like the column it was fitted on:
        # Spark's ``element_at`` needs the map key type to match
        keys = ", ".join(Lit(cat).to_sql() for cat, _ in entries)
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
        # Spark and DuckDB order NaN above every number, so ``score > 0``
        # would label a NaN score 1; ``-score < 0`` labels it 0, as the
        # pipeline's ``NaN > 0`` does
        return f"(CASE WHEN -{score} < 0.0E0 THEN 1.0E0 ELSE 0.0E0 END)"
    raise ValueError(f"bad kind {kind!r}")


def inline_pipeline_sql(pipe: Pipeline, kind: str) -> str:
    """The pipeline's ``kind`` output as one SQL expression. Raises
    TypeError for a model with no SQL form, and ValueError for an
    output that has none (see ``tree_to_sql``; a ``LinearRegression``
    has only its ``label``, the score)."""
    model = pipe.model
    if isinstance(model, (DecisionTree, RandomForest)):
        return tree_to_sql(model, pipe.featurizer, kind=kind)
    if isinstance(model, LinearRegression) and kind != "label":
        raise ValueError(f"a LinearRegression has no {kind!r} output")
    if isinstance(model, (LogisticRegressionL1, LinearRegression)):
        k = "score" if isinstance(model, LinearRegression) else kind
        return linear_to_sql(model, pipe.featurizer, kind=k)
    raise TypeError(f"cannot inline {type(model).__name__}")


# The largest inlined tree or forest, in CASE nodes, that still beats
# both Python-wave forms (the miniml pipeline and its graph): in
# ``results/inline_probe.out`` the 50-tree hospital forest (787 nodes)
# is the largest that wins with every smaller one winning too; the
# 60-tree one (947) loses to the pipeline, and the larger forests lose
# to both.
MAX_CASE_NODES = 787


def case_nodes(model: DecisionTree | RandomForest, kind: str) -> int:
    """The number of CASE nodes in ``tree_to_sql(model, ..., kind)``,
    counted off the model without rendering it: one per internal node
    of every member tree, and a binary forest ``label`` renders the
    class means twice under one more CASE."""
    n = sum(int((tree.feature != LEAF).sum()) for tree in tree_members(model))
    if isinstance(model, RandomForest) and kind == "label" and model.task == "classification":
        return 2 * n + 1
    return n


def predict_sql(node) -> str | None:
    """The SQL form of ``node``, or None when it has none. An
    ``MLPredict`` of a tree, a forest, or a linear or logistic model has
    one, so codegen selects it over the child; MLPs (graphs after
    ``NNTranslation``), clustered models, multi-class forest labels and
    trees or forests of more than ``MAX_CASE_NODES`` CASE nodes have
    none and run in one ``mapInPandas`` wave.

    ``tools/inline_probe.py`` measured the forms (250K rows, ``local[4]``
    on a 4-vCPU Xeon, median of 5 alternating runs, Python / graph /
    inlined with ``Raven``'s huge-method limit of 8000): the Fig. 1
    depth-6 tree 0.78 / 0.80 / 0.25 s, the flights LR 0.80 / 0.79 /
    0.29 s, ``delay_rf`` (217 CASE nodes, one-hot splits) 0.81 / 0.88 /
    0.31 s, a 30-tree hospital forest (474) 1.00 / 1.31 / 0.56 s. At
    Spark's default limit the last two take 1.18 and 1.62 s inlined:
    generated code over HotSpot's 8000-byte JIT limit runs interpreted.
    Past ``MAX_CASE_NODES`` the limit no longer helps: the 60-tree
    forest (947) takes 1.14 / 1.65 / 1.46 s, and 1.40 s at the
    default."""
    if not (isinstance(node, MLPredict) and isinstance(node.pipeline, Pipeline)):
        return None
    model = node.pipeline.model
    if (isinstance(model, (DecisionTree, RandomForest))
            and case_nodes(model, node.kind) > MAX_CASE_NODES):
        return None
    try:
        return inline_pipeline_sql(node.pipeline, node.kind)
    except (TypeError, ValueError):
        return None
