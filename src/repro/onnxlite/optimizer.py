"""Graph-level optimizations: constant folding, dead-node elimination,
constant input binding, and the embedding-bag rewrite of one-hot
features times a weight matrix.

These are the "compiler optimizations" of the paper (§2/§4.1): when a
relational predicate makes a model input constant (e.g. ``pregnant=1``),
Raven binds that input to the constant and folds every sub-computation
that now depends only on constants — statically evaluating part of the
network.
"""
from __future__ import annotations

import numpy as np

from repro.onnxlite.graph import Graph, Node
from repro.onnxlite.ops import KERNELS


def fold_constants(g: Graph) -> Graph:
    """Evaluate every node whose inputs are all initializers, turning
    its output into a new initializer. Iterates to fixpoint."""
    out = Graph(
        inputs=list(g.inputs),
        outputs=list(g.outputs),
        nodes=list(g.nodes),
        initializers=dict(g.initializers),
        name=g.name,
    )
    changed = True
    while changed:
        changed = False
        remaining: list[Node] = []
        for n in out.nodes:
            if all(i in out.initializers for i in n.inputs):
                out.initializers[n.output] = KERNELS[n.op_type](
                    [out.initializers[i] for i in n.inputs], n.attrs
                )
                changed = True
            else:
                remaining.append(n)
        out.nodes = remaining
    return out


def eliminate_dead_nodes(g: Graph) -> Graph:
    """Drop nodes (and initializers) that do not reach any output."""
    producers = g.producers()
    live: set[str] = set()
    stack = list(g.outputs)
    while stack:
        t = stack.pop()
        if t in live:
            continue
        live.add(t)
        if t in producers:
            stack.extend(producers[t].inputs)
    return Graph(
        inputs=[i for i in g.inputs if i in live],
        outputs=list(g.outputs),
        nodes=[n for n in g.nodes if n.output in live],
        initializers={k: v for k, v in g.initializers.items() if k in live},
        name=g.name,
    )


def bind_inputs(g: Graph, constants: dict[str, np.ndarray]) -> Graph:
    """Turn graph inputs into initializers (the predicate told us their
    value). Follow with :func:`optimize` to fold what became constant."""
    unknown = set(constants) - set(g.inputs)
    if unknown:
        raise KeyError(f"not graph inputs: {sorted(unknown)}")
    return Graph(
        inputs=[i for i in g.inputs if i not in constants],
        outputs=list(g.outputs),
        nodes=list(g.nodes),
        initializers={**g.initializers, **{k: np.asarray(v) for k, v in constants.items()}},
        name=g.name,
    )


def _block_widths(producers: dict[str, Node], inits: dict[str, np.ndarray],
                  blocks: list[str], total: int) -> list[int] | None:
    """Column widths of the ``Concat`` inputs ``blocks`` that together
    make ``total`` columns: a ``OneHot`` block is ``depth`` wide, a
    constant block as wide as its second axis. At most one other block,
    whose width is the rest; ``None`` if the widths cannot be told."""
    widths: list[int | None] = []
    for b in blocks:
        if b in producers and producers[b].op_type == "OneHot":
            widths.append(int(producers[b].attrs["depth"]))
        elif b in inits and np.ndim(inits[b]) == 2:
            widths.append(inits[b].shape[1])
        else:
            widths.append(None)
    unknown = [i for i, w in enumerate(widths) if w is None]
    if len(unknown) > 1:
        return None
    if unknown:
        widths[unknown[0]] = total - sum(w for w in widths if w is not None)
    if sum(widths) != total or min(widths) < 1:
        return None
    return widths


def embedding_bag(g: Graph) -> Graph:
    """Rewrite ``MatMul``/``Gemm`` of a ``Concat`` of one-hot and dense
    blocks by a constant weight matrix into a sum of per-block parts:
    each one-hot block gathers its rows of the weights by category code,
    each dense block multiplies its own rows, and a ``Gemm`` adds its
    bias. Each one-hot block's rows get one zero row appended, which
    code −1 (an unseen category) gathers, as ``OneHot`` yields a zero
    row for it. The ``OneHot`` and ``Concat`` nodes are left for
    :func:`eliminate_dead_nodes`."""
    producers = g.producers()
    inits = dict(g.initializers)
    nodes: list[Node] = []
    for n in g.nodes:
        concat = producers.get(n.inputs[0])
        weight = inits.get(n.inputs[1]) if n.op_type in ("MatMul", "Gemm") else None
        if (weight is None or weight.ndim != 2 or concat is None
                or concat.op_type != "Concat" or concat.attrs.get("axis", -1) not in (1, -1)):
            nodes.append(n)
            continue
        widths = _block_widths(producers, inits, concat.inputs, weight.shape[0])
        if widths is None:
            nodes.append(n)
            continue
        parts: list[str] = []
        start = 0
        for j, (block, width) in enumerate(zip(concat.inputs, widths)):
            rows = weight[start : start + width]
            start += width
            w_name, part = f"{n.output}_eb{j}_W", f"{n.output}_eb{j}"
            src = producers.get(block)
            if src is not None and src.op_type == "OneHot":
                inits[w_name] = np.vstack([rows, np.zeros((1, rows.shape[1]))])
                nodes.append(Node("Gather", [w_name, src.inputs[0]], part))
            else:
                inits[w_name] = rows
                nodes.append(Node("MatMul", [block, w_name], part))
            parts.append(part)
        if n.op_type == "Gemm":
            parts.append(n.inputs[2])
        acc = parts[0]
        for j, part in enumerate(parts[1:], 1):
            out = n.output if j == len(parts) - 1 else f"{n.output}_ebsum{j}"
            nodes.append(Node("Add", [acc, part], out))
            acc = out
        if len(parts) == 1:
            nodes.append(Node("Identity", [acc], n.output))
    return Graph(inputs=list(g.inputs), outputs=list(g.outputs), nodes=nodes,
                 initializers=inits, name=g.name)


def optimize(g: Graph, bind: dict[str, np.ndarray] | None = None) -> Graph:
    """The standard pass pipeline: optional input binding → embedding
    bag → constant folding → dead-node elimination."""
    if bind:
        g = bind_inputs(g, bind)
    g = embedding_bag(g)
    g = fold_constants(g)
    g = eliminate_dead_nodes(g)
    g.validate()
    return g
