"""Graph-level optimizations: constant input binding, constant folding
and dead-node elimination.

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


def optimize(g: Graph, bind: dict[str, np.ndarray] | None = None) -> Graph:
    """The standard pass pipeline: optional input binding → constant
    folding → dead-node elimination."""
    if bind:
        g = bind_inputs(g, bind)
    g = fold_constants(g)
    g = eliminate_dead_nodes(g)
    g.validate()
    return g
