"""NN translation: compile miniml models and featurizers to onnxlite
graphs (the paper's MLD→LA operator transformation, §4.2).

Trees and forests are compiled to Hummingbird's TreeTraversal strategy
(Nakandala et al., OSDI 2020), batched over every tree of the forest:

* all trees' nodes are stacked into one set of tables indexed by a
  global node id — the tested feature, the threshold, the left and
  right child (a leaf points to itself) and the leaf values, one
  column per forest class, as ``RandomForest`` reads them;
* a (rows, trees) tensor of node ids starts at the roots and takes one
  step per level: ``Gather`` the tables at the current nodes,
  ``GatherElements`` the tested features from the input, ``LessOrEqual``
  and ``Where`` pick the child. After the forest's maximum depth every
  row sits on a leaf in every tree;
* the leaf values are gathered, summed over trees in tree order and
  divided by the number of trees, as ``RandomForest`` averages them.

A row goes right when its feature is NaN (``NaN <= t`` is false), at
that node only, exactly as ``DecisionTree.apply`` does. The cost is one
batch of gathers per level — O(rows · trees · depth) — where the 3-GEMM
form multiplies every row by every internal node and every leaf.

A pipeline graph reads ``TableFeaturizer.transform_codes``'s feeds and
ends in an output head that emits one predict kind. Its linear models
and MLPs never build the one-hot matrix: the first affine layer gathers
each one-hot block's weight rows by category code.
"""
from __future__ import annotations

import numpy as np

from repro.miniml.featurize import TableFeaturizer
from repro.miniml.forest import RandomForest, tree_members
from repro.miniml.linear import LinearRegression, LogisticRegressionL1
from repro.miniml.mlp import MLPClassifier
from repro.miniml.pipeline import Pipeline
from repro.miniml.tree import LEAF, DecisionTree
from repro.onnxlite.graph import Graph, Node


def _node_tables(model: DecisionTree | RandomForest) -> tuple[dict[str, np.ndarray], int]:
    """Stack every member tree's nodes into one set of tables, indexed
    by a global node id, and return them with the forest's maximum
    depth. A leaf tests feature 0 and points to itself on both sides,
    so extra levels leave a row that reached it in place."""
    trees = tree_members(model)
    offsets = np.cumsum([0] + [t.n_nodes for t in trees])
    left, right = [], []
    for tree, off in zip(trees, offsets):
        ids = np.arange(tree.n_nodes, dtype=np.int64) + off
        leaf = tree.feature == LEAF
        left.append(np.where(leaf, ids, tree.left + off))
        right.append(np.where(leaf, ids, tree.right + off))
    feature = np.concatenate([t.feature for t in trees])
    tables = {
        "feature": np.where(feature == LEAF, 0, feature),
        "threshold": np.concatenate([t.threshold for t in trees]),
        "left": np.concatenate(left),
        "right": np.concatenate(right),
        "value": np.concatenate([t.value for t in trees]),
        "roots": offsets[:-1],
    }
    # maximum depth, one level of the whole forest at a time
    internal = feature != LEAF
    depth, frontier = 0, tables["roots"]
    while True:
        frontier = frontier[internal[frontier]]
        if not frontier.size:
            break
        frontier = np.concatenate([tables["left"][frontier], tables["right"][frontier]])
        depth += 1
    return tables, depth


def forest_to_graph(model: DecisionTree | RandomForest, input_name: str = "X") -> Graph:
    """Compile a forest, or a tree as a forest of one, to a batched
    TreeTraversal over the stacked node tables of its ``tree_members``.
    The node index tensor is (rows, trees); each level gathers the
    nodes' feature ids, thresholds and children, fetches the tested
    features from the input, and steps every row left or right at once.
    Input (B,F) features → output ``value``: the per-tree leaf values
    (aligned to the model's classes, or regression means) summed in tree
    order and divided by the number of trees, as ``RandomForest``
    averages them."""
    tables, depth = _node_tables(model)
    inits = {f"trav_{k}": v for k, v in tables.items()}
    inits["ntrees"] = np.float64(len(tables["roots"]))
    nodes: list[Node] = []
    idx = "trav_roots"
    # at least one level, so that a forest of single leaves still
    # yields one row of output per input row
    for d in range(max(1, depth)):
        p = f"lvl{d}_"
        for k in ("feature", "threshold", "left", "right"):
            nodes.append(Node("Gather", [f"trav_{k}", idx], f"{p}{k}"))
        if d == 0:
            # root lookups are constant (trees,): fetch whole columns
            nodes.append(Node("Gather", [input_name, f"{p}feature"], f"{p}x", {"axis": 1}))
        else:
            nodes.append(Node("GatherElements", [input_name, f"{p}feature"], f"{p}x",
                              {"axis": 1}))
        nodes.append(Node("LessOrEqual", [f"{p}x", f"{p}threshold"], f"{p}go_left"))
        nodes.append(Node("Where", [f"{p}go_left", f"{p}left", f"{p}right"], f"{p}next"))
        idx = f"{p}next"
    # (trees, rows) leaf ids make a contiguous (trees, rows, outputs)
    # gather, which numpy sums over its leading axis in tree order
    nodes += [
        Node("Transpose", [idx], "leaf_ids"),
        Node("Gather", ["trav_value", "leaf_ids"], "leaf_values"),
        Node("ReduceSum", ["leaf_values"], "value_sum", {"axis": 0}),
        Node("Div", ["value_sum", "ntrees"], "value"),
    ]
    g = Graph(inputs=[input_name], outputs=["value"], nodes=nodes, initializers=inits,
              name="forest")
    g.validate()
    return g


# A column block of a model's input matrix as a graph tensor: (tensor,
# width, whether the tensor holds the block's one-hot category codes).
Block = tuple[str, int, bool]


def _affine(blocks: list[Block], W: np.ndarray, b, out: str
            ) -> tuple[list[Node], dict[str, np.ndarray]]:
    """Nodes computing ``X @ W + b`` into ``out``, where ``X`` is given
    as its column blocks. A dense block multiplies its rows of ``W``. A
    one-hot block never materializes: its codes ``Gather`` its rows of
    ``W`` (an embedding bag), plus one appended zero row that code −1
    (an unseen or NULL category) reads, as the one-hot encoder's zero
    row does. The parts are summed in block order, then the bias."""
    nodes: list[Node] = []
    inits: dict[str, np.ndarray] = {}
    parts: list[str] = []
    start = 0
    for j, (x, width, one_hot) in enumerate(blocks):
        rows = W[start : start + width]
        start += width
        w, part = f"{out}_W{j}", f"{out}_x{j}"
        if one_hot:
            inits[w] = np.vstack([rows, np.zeros((1, rows.shape[1]))])
            nodes.append(Node("Gather", [w, x], part))
        else:
            inits[w] = rows
            nodes.append(Node("MatMul", [x, w], part))
        parts.append(part)
    inits[f"{out}_b"] = b
    parts.append(f"{out}_b")
    acc = parts[0]
    for j, part in enumerate(parts[1:], 1):
        nxt = out if j == len(parts) - 1 else f"{out}_sum{j}"
        nodes.append(Node("Add", [acc, part], nxt))
        acc = nxt
    return nodes, inits


def linear_to_graph(model, blocks: list[Block] | None = None) -> Graph:
    """Compile LinearRegression / LogisticRegressionL1 over the column
    ``blocks`` of a pipeline's features, by default one dense input
    ``X``. Outputs: ``score`` (= Xw + b) and, for logistic, ``proba``
    (= sigmoid)."""
    blocks = [("X", len(model.coef_), False)] if blocks is None else blocks
    nodes, inits = _affine(blocks, model.coef_.reshape(-1, 1),
                           np.float64(model.intercept_), "score2d")
    nodes.append(Node("Reshape", ["score2d"], "score", {"shape": [-1]}))
    outputs = ["score"]
    if isinstance(model, LogisticRegressionL1):
        nodes.append(Node("Sigmoid", ["score"], "proba"))
        outputs.append("proba")
    g = Graph(inputs=[x for x, _, _ in blocks], outputs=outputs, nodes=nodes,
              initializers=inits, name="linear")
    g.validate()
    return g


def mlp_to_graph(mlp: MLPClassifier, blocks: list[Block] | None = None) -> Graph:
    """Compile an MLP over the column ``blocks`` of a pipeline's
    features, by default one dense input ``X``: an affine first layer,
    then a Relu/Gemm chain and a sigmoid head."""
    blocks = [("X", len(mlp.weights[0]), False)] if blocks is None else blocks
    nodes, inits = _affine(blocks, mlp.weights[0], mlp.biases[0], "z0")
    for i in range(1, len(mlp.weights)):
        inits[f"W{i}"], inits[f"b{i}"] = mlp.weights[i], mlp.biases[i]
        nodes.append(Node("Relu", [f"z{i - 1}"], f"a{i - 1}"))
        nodes.append(Node("Gemm", [f"a{i - 1}", f"W{i}", f"b{i}"], f"z{i}"))
    nodes.append(Node("Reshape", [f"z{len(mlp.weights) - 1}"], "score", {"shape": [-1]}))
    nodes.append(Node("Sigmoid", ["score"], "proba"))
    g = Graph(inputs=[x for x, _, _ in blocks], outputs=["score", "proba"],
              nodes=nodes, initializers=inits, name="mlp")
    g.validate()
    return g


def featurizer_nodes(feat: TableFeaturizer
                     ) -> tuple[list[Node], dict[str, np.ndarray], list[Block]]:
    """Emit the featurizer as graph ops over ``transform_codes``'s
    feeds. Returns (nodes, initializers, the ``TableFeaturizer.blocks``
    as tensors): the nodes scale the numeric block; a one-hot block
    stays its codes."""
    nodes: list[Node] = []
    inits: dict[str, np.ndarray] = {}
    blocks: list[Block] = []
    for feed, width in feat.blocks:
        if feed == "num" and feat.scaler is not None:
            inits["f_mean"] = feat.scaler.mean_
            inits["f_scale"] = feat.scaler.scale_
            nodes.append(Node("Sub", ["num", "f_mean"], "f_centered"))
            nodes.append(Node("Div", ["f_centered", "f_scale"], "f_num"))
            blocks.append(("f_num", width, False))
        else:
            blocks.append((feed, width, feed != "num"))
    return nodes, inits, blocks


def _dense_features(blocks: list[Block], output_name: str) -> list[Node]:
    """Materialize the feature matrix from its blocks, the form tree
    traversal gathers its tested features from: ``OneHot`` per one-hot
    block, joined by ``Concat``."""
    nodes: list[Node] = []
    parts: list[str] = []
    for x, width, one_hot in blocks:
        if one_hot:
            part = f"f_oh_{x.removeprefix('cat_')}"
            nodes.append(Node("OneHot", [x], part, {"depth": width}))
            x = part
        parts.append(x)
    if len(parts) == 1:
        nodes.append(Node("Identity", [parts[0]], output_name))
    else:
        nodes.append(Node("Concat", parts, output_name, {"axis": 1}))
    return nodes


def _output_head(model, kind: str) -> tuple[list[Node], dict[str, np.ndarray]]:
    """Nodes computing tensor ``kind`` from the model graph's ``value``
    or ``score`` and ``proba``, as ``ir.ops.model_output`` computes it.
    A ``score > 0`` label is 0 for a NaN score, as in the model. Raises
    ValueError for an output the model does not have."""
    if isinstance(model, (DecisionTree, RandomForest)):
        classify = model.task == "classification"
        if kind == "label" and classify:
            return [Node("ArgMax", ["value"], "out_class", {"axis": 1}),
                    Node("Gather", ["out_classes", "out_class"], "label")], \
                {"out_classes": np.asarray(model.classes_, dtype=np.float64)}
        if kind == "label" or (kind == "proba" and classify and len(model.classes_) > 1):
            return [Node("Gather", ["value", "out_col"], kind, {"axis": 1})], \
                {"out_col": np.int64(1 if classify else 0)}
    elif isinstance(model, LinearRegression):
        if kind == "label":
            return [Node("Identity", ["score"], "label")], {}
    elif kind == "label":
        return [Node("Greater", ["score", "out_zero"], "out_positive"),
                Node("Where", ["out_positive", "out_one", "out_zero"], "label")], \
            {"out_zero": np.float64(0.0), "out_one": np.float64(1.0)}
    elif kind in ("proba", "score"):
        return [], {}
    raise ValueError(f"{type(model).__name__} has no {kind!r} output")


def pipeline_to_graph(pipe: Pipeline, kind: str) -> Graph:
    """Compile featurizer + estimator end-to-end (the Fig. 3 pipelines)
    to a graph whose one output, ``kind``, is ``ir.ops.pipeline_output``'s.
    Feed with ``TableFeaturizer.transform_codes`` outputs. Linear models
    and MLPs read the feature blocks directly; trees and forests read a
    dense feature matrix."""
    nodes, inits, blocks = featurizer_nodes(pipe.featurizer)
    model = pipe.model
    if isinstance(model, (DecisionTree, RandomForest)):
        nodes.extend(_dense_features(blocks, "features"))
        sub = forest_to_graph(model, "features")
    elif isinstance(model, (LogisticRegressionL1, LinearRegression)):
        sub = linear_to_graph(model, blocks=blocks)
    elif isinstance(model, MLPClassifier):
        sub = mlp_to_graph(model, blocks=blocks)
    else:
        raise TypeError(f"cannot NN-translate {type(model).__name__}")
    head, head_inits = _output_head(model, kind)
    nodes.extend(sub.nodes + head)
    inits.update(sub.initializers | head_inits)
    g = Graph(inputs=[feed for feed, _ in pipe.featurizer.blocks], outputs=[kind],
              nodes=nodes, initializers=inits, name="pipeline")
    g.validate()
    return g
