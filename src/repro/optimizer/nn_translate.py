"""NN translation rule (§4.2): swap MLPredict (classical MLD operator)
for NNPredict (an onnxlite LA graph). The graph runs batched tensor
ops (gathers and matmuls for MLPs, one traversal over all trees of a
forest) — the executor can then choose the NN engine for this operator,
as Raven's runtime selection does.

Model inlining (ML→SQL) and NN translation are alternative physical
forms of one predict, and ``inlining.predict_sql`` picks between them:
the rule translates only a predict with no SQL form, which among the
miniml pipelines leaves MLPs. Trees, forests and linear or logistic
models stay ``MLPredict``s, which codegen runs as Catalyst expressions
with no Python task; as graphs they would pay a ``mapInPandas`` wave
(see ``predict_sql`` for the measurements). ``translate_predict``
still compiles any tree, forest, linear or MLP pipeline, for callers
that want the graph form itself."""
from __future__ import annotations

from repro.ir import PlanNode
from repro.ir.ops import MLPredict, NNPredict
from repro.ir.plan import Catalog
from repro.miniml.forest import RandomForest
from repro.miniml.pipeline import Pipeline
from repro.miniml.tree import DecisionTree
from repro.onnxlite import optimize
from repro.onnxlite.convert import pipeline_to_graph
from repro.optimizer.inlining import predict_sql
from repro.optimizer.rules import Rule


def translate_predict(node: MLPredict) -> NNPredict:
    """Compile one MLPredict's pipeline to a graph-backed NNPredict."""
    pipe: Pipeline = node.pipeline
    graph = optimize(pipeline_to_graph(pipe))
    classes = None
    model = pipe.model
    if isinstance(model, (DecisionTree, RandomForest)) and model.task == "classification":
        classes = model.classes_
    return NNPredict(
        child=node.child,
        model_name=node.model_name,
        graph=graph,
        featurizer=pipe.featurizer,
        output_col=node.output_col,
        kind=node.kind,
        classes=classes,
    )


class NNTranslation(Rule):
    name = "nn_translation"

    def rewrite(self, node: PlanNode, catalog: Catalog) -> PlanNode:
        if not (isinstance(node, MLPredict) and isinstance(node.pipeline, Pipeline)):
            return node
        if predict_sql(node) is not None:
            return node
        try:
            return translate_predict(node)
        except TypeError:
            return node
