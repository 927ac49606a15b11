"""Rule engine: heuristic ordered application to fixpoint."""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir import PlanNode, transform_bottom_up
from repro.ir.plan import Catalog


class Rule:
    """A plan rewrite that keeps the query's output columns' values.

    A rule states one node-local rewrite: ``rewrite(node, catalog)``
    gets a node whose children are already rewritten and returns its
    replacement, or ``node`` itself for "no change". ``apply`` drives it
    over the whole plan with ``ir.transform_bottom_up`` and returns
    (new plan, changed?). Because that walk keeps a node's identity
    when none of its children changed, the plan changed exactly when
    the returned root is a different object."""

    name: str = "rule"

    def rewrite(self, node: PlanNode, catalog: Catalog) -> PlanNode:
        raise NotImplementedError

    def apply(self, plan: PlanNode, catalog: Catalog) -> tuple[PlanNode, bool]:
        out = transform_bottom_up(plan, lambda n: self.rewrite(n, catalog))
        return out, out is not plan


@dataclass
class OptimizationReport:
    plan: PlanNode
    applied: list[str] = field(default_factory=list)
    iterations: int = 0


class CrossOptimizer:
    """Apply ``rules`` in order, repeating the whole sequence until no
    rule fires (bounded by ``max_iterations`` — rules that enable each
    other, like pruning → projection pushdown → join elimination, need
    a second sweep)."""

    def __init__(self, rules: list[Rule] | None = None, max_iterations: int = 5):
        self.rules = rules if rules is not None else default_rules()
        self.max_iterations = max_iterations

    def optimize(self, plan: PlanNode, catalog: Catalog) -> OptimizationReport:
        report = OptimizationReport(plan)
        for it in range(self.max_iterations):
            any_change = False
            for rule in self.rules:
                plan, changed = rule.apply(plan, catalog)
                if changed:
                    report.applied.append(rule.name)
                    any_change = True
            report.iterations = it + 1
            if not any_change:
                break
        report.plan = plan
        return report


def default_rules() -> list[Rule]:
    """The default heuristic order: normalize filters first so model
    rules see every predicate, then cross-IR rules, then column pruning
    (join elimination, once models have shed features), then NN
    translation of the MLPs."""
    from repro.optimizer.nn_translate import NNTranslation
    from repro.optimizer.projection import ModelProjectionPushdown
    from repro.optimizer.pruning import PredicateBasedModelPruning
    from repro.optimizer.relational import FilterPushdown, PruneColumns

    return [
        FilterPushdown(),
        PredicateBasedModelPruning(),
        ModelProjectionPushdown(),
        PruneColumns(),
        NNTranslation(),
    ]
