"""NN translation rule (§4.2): swap MLPredict (classical MLD operator)
for NNPredict (an onnxlite LA graph). The graph runs batched tensor
ops (gathers and matmuls for MLPs, one traversal over all trees of a
forest) — the executor can then choose the NN engine for this operator,
as Raven's runtime selection does.

Model inlining (ML→SQL) and NN translation are alternative physical
forms of one predict. The rule, last of ``default_rules()``, translates
exactly the ``MLPClassifier`` predicts: an MLP has no SQL form, and of
its two ``mapInPandas`` forms the graph is the faster or tied one
(``tools/inline_probe.py``). Every other predict stays an ``MLPredict``,
run as SQL or as one miniml wave. ``translate_predict`` still compiles
any tree, forest, linear or MLP pipeline, for callers that want the
graph form itself."""
from __future__ import annotations

from repro.ir import PlanNode
from repro.ir.ops import MLPredict, NNPredict
from repro.ir.plan import Catalog
from repro.miniml.mlp import MLPClassifier
from repro.miniml.pipeline import Pipeline
from repro.onnxlite import optimize
from repro.onnxlite.convert import pipeline_to_graph
from repro.optimizer.rules import Rule


def translate_predict(node: MLPredict) -> NNPredict:
    """Compile one MLPredict's pipeline, for its kind, to a graph-backed
    NNPredict. Raises ValueError for a kind the model does not have."""
    pipe: Pipeline = node.pipeline
    return NNPredict(
        child=node.child,
        model_name=node.model_name,
        graph=optimize(pipeline_to_graph(pipe, node.kind)),
        featurizer=pipe.featurizer,
        output_col=node.output_col,
        kind=node.kind,
    )


class NNTranslation(Rule):
    name = "nn_translation"

    def rewrite(self, node: PlanNode, catalog: Catalog) -> PlanNode:
        if (isinstance(node, MLPredict) and isinstance(node.pipeline, Pipeline)
                and isinstance(node.pipeline.model, MLPClassifier)):
            return translate_predict(node)
        return node
