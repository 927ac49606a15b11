"""Rule engine: heuristic ordered application to fixpoint."""
from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir import PlanNode
from repro.ir.plan import Catalog


class Rule:
    """A plan rewrite. ``apply`` returns (new plan, changed?). Rules
    must be semantics-preserving on the query's output columns."""

    name: str = "rule"

    def apply(self, plan: PlanNode, catalog: Catalog) -> tuple[PlanNode, bool]:
        raise NotImplementedError

    def reset(self) -> None:
        """Forget state kept across sweeps; ``CrossOptimizer`` calls it
        at the start of every ``optimize()``."""


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
        for rule in self.rules:
            rule.reset()
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
    (which performs join elimination last, once models have shed
    features)."""
    from repro.optimizer.projection import ModelProjectionPushdown
    from repro.optimizer.pruning import PredicateBasedModelPruning
    from repro.optimizer.relational import FilterPushdown, PruneColumns

    return [
        FilterPushdown(),
        PredicateBasedModelPruning(),
        ModelProjectionPushdown(),
        PruneColumns(),
    ]
