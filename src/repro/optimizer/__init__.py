"""Raven's Cross Optimizer (§4): cross-IR optimizations and operator
transformations, expressed as rewrite rules over the unified IR.

Rule inventory (module → paper optimization):

* ``relational`` — standard DB optimizations: filter pushdown/merging,
  projection pushdown, join elimination (§2 "standard DB optimizations").
* ``pruning`` — predicate-based model pruning: tree-branch elimination
  and one-hot block folding from WHERE-clause constraints (§4.1).
* ``projection`` — model-projection pushdown: zero-weight / unused
  features are dropped from model *and* data plan (§4.1).
* ``clustering`` — model clustering: per-cluster precompiled models
  behind a cheap router (§4.1).
* ``inlining`` — model inlining: the SQL translators for trees,
  forests and linear models (§4.2), and ``predict_sql``, which decides
  by model type whether a predict has an SQL form. Not a rule:
  ``runtime.codegen`` runs every predict with an SQL form as SQL.
* ``nn_translate`` — NN translation: MLPs become onnxlite graphs
  (§4.2), by model type; the last of ``default_rules()``.

Model/query splitting (§2) is not a rule: with every tree under the
``inlining.MAX_CASE_NODES`` cap inlined whole, a UNION of two split
branches only scanned and joined the inputs twice, and it lost to the
plain plan on every query measured (see DESIGN.md).

``rules.CrossOptimizer`` applies rules heuristically in a fixed order
(the paper's "initial version will be heuristic-based, applying all
rules in a specific order").
"""
from repro.optimizer.rules import CrossOptimizer, OptimizationReport, Rule, default_rules

__all__ = ["CrossOptimizer", "OptimizationReport", "Rule", "default_rules"]
