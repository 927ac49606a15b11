"""Raven's unified intermediate representation (§3).

One DAG mixes relational-algebra operators (Scan/Filter/Project/Join),
ML operators and featurizers (MLPredict over a miniml pipeline,
NNPredict over an onnxlite graph, ClusteredPredict), and black-box UDF
nodes — the four operator categories (RA / LA / MLD / UDF) of the
paper.
"""
from repro.ir.expr import (
    And,
    Cmp,
    Col,
    Constraint,
    Expr,
    Lit,
    Not,
    Or,
    and_all,
    column_constraints,
    conjuncts,
)
from repro.ir.ops import (
    ClusteredPredict,
    Filter,
    Join,
    MLPredict,
    NNPredict,
    PlanNode,
    Project,
    Scan,
    UDFNode,
)
from repro.ir.plan import Catalog, count_nodes, output_columns, pretty, transform_bottom_up, walk

__all__ = [
    "Expr", "Col", "Lit", "Cmp", "And", "Or", "Not", "Constraint",
    "conjuncts", "column_constraints", "and_all",
    "Catalog", "output_columns", "count_nodes",
    "PlanNode", "Scan", "Filter", "Project", "Join",
    "MLPredict", "NNPredict", "ClusteredPredict", "UDFNode",
    "walk", "transform_bottom_up", "pretty",
]
