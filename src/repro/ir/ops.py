"""Operator nodes of the Raven IR.

Relational nodes (Scan/Filter/Project/Join) mirror a textbook
logical plan. ML nodes carry the actual model artifacts so optimizer
rules can rewrite them (prune a tree, slice a weight vector, fold a
one-hot block): that is the whole point of a *unified* IR — the
optimizer sees model internals and data operators in one DAG.

Every predict-style node implements ``predict_pandas(pdf) -> np.ndarray``.
What a predict emits for each ``kind`` is one contract,
``model_output``, which every physical form renders and whose missing
outputs every form rejects: numpy (``pipeline_output`` featurizes a
pipeline's rows for it, clustered scoring each cluster's), SQL
(``optimizer.inlining``) and a graph's output head, compiled for the
kind by ``onnxlite.convert.pipeline_to_graph`` and run by
``graph_output``. Predict nodes, the external-script worker and the
standalone engine runs of the experiments all go through these
functions. The Spark codegen inlines a tree, forest or linear-model
``MLPredict`` as its SQL expression and scores every other predict in
``mapInPandas`` over ``predict_pandas``.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.ir.expr import Expr


class PlanNode:
    """Base class; subclasses define ``children`` ordering."""

    children: list["PlanNode"]

    def with_children(self, children: list["PlanNode"]) -> "PlanNode":
        """Shallow copy with replaced children (used by plan rewrites)."""
        import copy

        node = copy.copy(self)
        node.children = list(children)
        return node

    def label(self) -> str:
        return type(self).__name__


class UnaryNode(PlanNode):
    """A node over one input, ``child``; ``children`` is ``[child]``."""

    child: PlanNode

    @property
    def children(self) -> list[PlanNode]:
        return [self.child]

    @children.setter
    def children(self, cs: list[PlanNode]) -> None:
        (self.child,) = cs


@dataclass(eq=False)
class Scan(PlanNode):
    table: str
    children: list[PlanNode] = field(default_factory=list)

    def label(self) -> str:
        return f"Scan({self.table})"


@dataclass(eq=False)
class Filter(UnaryNode):
    child: PlanNode
    predicate: Expr

    def label(self) -> str:
        return f"Filter({self.predicate.to_sql()})"


@dataclass(eq=False)
class Project(UnaryNode):
    """Projection with optional computed columns: ``exprs`` maps output
    name → expression (a bare ``Col`` for passthrough)."""

    child: PlanNode
    exprs: list[tuple[str, Expr]]

    @property
    def output_names(self) -> list[str]:
        return [n for n, _ in self.exprs]

    def label(self) -> str:
        return f"Project({', '.join(self.output_names)})"


@dataclass(eq=False)
class Join(PlanNode):
    left: PlanNode
    right: PlanNode
    left_on: str
    right_on: str
    how: str = "inner"
    # right side is unique on its key AND every left row matches exactly
    # one right row (key/FK integrity): dropping the join is then
    # row-preserving. Set from catalog metadata by the analyzer.
    fk_one_to_one: bool = False

    @property
    def children(self) -> list[PlanNode]:
        return [self.left, self.right]

    @children.setter
    def children(self, cs: list[PlanNode]) -> None:
        self.left, self.right = cs

    def label(self) -> str:
        return f"Join({self.left_on}={self.right_on}{', 1:1' if self.fk_one_to_one else ''})"


# Graph scoring runs in chunks of this many rows: forest graphs
# materialize a (rows × trees) node-id tensor per level and a (trees ×
# rows × classes) leaf-value tensor. Spark's Arrow batches (10K rows) are
# always a single chunk.
GRAPH_CHUNK_ROWS = 50_000


def model_output(model, X: np.ndarray, kind: str) -> np.ndarray:
    """Predict-output contract over a feature matrix ``X``: ``label``
    (predicted class / regression value), ``proba`` (P[class 1]) or
    ``score`` (margin) of a miniml estimator, as float64."""
    if kind == "label":
        return np.asarray(model.predict(X), dtype=np.float64)
    if kind == "proba":
        return model.predict_proba(X)[:, 1]
    if kind == "score":
        return np.asarray(model.decision_function(X), dtype=np.float64)
    raise ValueError(f"bad kind {kind!r}")


def pipeline_output(pipeline, pdf: pd.DataFrame, kind: str) -> np.ndarray:
    """Predict-output contract, pipeline form: ``model_output`` of the
    pipeline's featurized rows."""
    return model_output(pipeline.model, pipeline.featurizer.transform(pdf), kind)


def graph_output(run, featurizer, pdf: pd.DataFrame, kind: str) -> np.ndarray:
    """Predict-output contract, graph form: output ``kind`` of a graph
    compiled for it (``onnxlite.convert.pipeline_to_graph``). ``run``
    maps feeds to graph outputs (``Graph.run`` or
    ``InferenceSession.run``); ``featurizer`` builds the feeds
    (``transform_codes``)."""
    if len(pdf) <= GRAPH_CHUNK_ROWS:
        chunks = [pdf]
    else:
        chunks = [pdf.iloc[s : s + GRAPH_CHUNK_ROWS]
                  for s in range(0, len(pdf), GRAPH_CHUNK_ROWS)]
    parts = [run(featurizer.transform_codes(chunk))[kind] for chunk in chunks]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


@dataclass(eq=False)
class MLPredict(UnaryNode):
    """Classical-ML scoring (MLD operator): a miniml ``Pipeline``
    applied to the child's rows, appending column ``output_col``.

    ``kind`` selects what to emit: ``label`` (predicted class /
    regression value), ``proba`` (P[class 1]) or ``score`` (margin).
    """

    child: PlanNode
    model_name: str
    pipeline: object  # miniml.Pipeline
    output_col: str
    kind: str = "label"

    @property
    def input_cols(self) -> list[str]:
        return list(self.pipeline.input_cols)

    def predict_pandas(self, pdf: pd.DataFrame) -> np.ndarray:
        return pipeline_output(self.pipeline, pdf, self.kind)

    def label(self) -> str:
        return f"MLPredict({self.model_name}→{self.output_col})"


@dataclass(eq=False)
class NNPredict(UnaryNode):
    """LA-operator scoring: an onnxlite graph fed through the
    featurizer's code/numeric inputs (NN-translated pipeline), compiled
    for ``kind``: its output ``kind`` is the predict's output."""

    child: PlanNode
    model_name: str
    graph: object  # onnxlite.Graph
    featurizer: object  # miniml.TableFeaturizer (for transform_codes)
    output_col: str
    kind: str = "label"

    @property
    def input_cols(self) -> list[str]:
        return list(self.featurizer.input_cols)

    def predict_pandas(self, pdf: pd.DataFrame) -> np.ndarray:
        return graph_output(self.graph.run, self.featurizer, pdf, self.kind)

    def label(self) -> str:
        return f"NNPredict({self.model_name}→{self.output_col})"


@dataclass(eq=False)
class ClusteredPredict(UnaryNode):
    """Model-clustering execution: ``clustered`` (an
    ``optimizer.clustering.ClusteredModel``) routes each row to its
    (offline k-means) cluster and scores it with that cluster's
    precompiled model."""

    child: PlanNode
    model_name: str
    clustered: object  # optimizer.clustering.ClusteredModel
    output_col: str
    kind: str = "proba"

    @property
    def input_cols(self) -> list[str]:
        return list(self.clustered.input_cols)

    def predict_pandas(self, pdf: pd.DataFrame) -> np.ndarray:
        return self.clustered.predict(pdf, self.kind)

    def label(self) -> str:
        return f"ClusteredPredict({self.model_name}×{len(self.clustered.pipelines)})"


@dataclass(eq=False)
class UDFNode(UnaryNode):
    """Black-box Python over pandas batches: ``fn(pdf) -> pdf``. The
    static analyzer emits this for code it cannot map to IR operators."""

    child: PlanNode
    fn: object
    description: str = "udf"
    # columns the UDF reads; None = unknown → treat as "all" (blocks pushdown)
    required_cols: list[str] | None = None

    def label(self) -> str:
        return f"UDF({self.description})"


# every node that appends a prediction column to its child's rows
PREDICTS = (MLPredict, NNPredict, ClusteredPredict)
