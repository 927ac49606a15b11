"""Standard relational optimizations on the Raven IR.

These are deliberately classical — the paper leans on them ("standard
DB optimizations such as predicate/projection pushdown and join
elimination can be triggered") and the interesting part is that *model*
rewrites enable them: after model-projection pushdown removes every
feature a joined table supplied, ``PruneColumns`` drops the join.

Note Catalyst will also push filters/projections once the plan is
codegen'd; doing it at the IR level matters because (a) join
elimination changes which tables are read at all, and (b) model rules
read filters gathered below predict operators.
"""
from __future__ import annotations

from repro.ir import (
    Col,
    Filter,
    Join,
    PlanNode,
    Project,
    Scan,
    UDFNode,
    and_all,
    column_constraints,
    conjuncts,
)
from repro.ir.ops import PREDICTS
from repro.ir.plan import Catalog, output_columns
from repro.optimizer.rules import Rule


def _preserved_sides(how: str) -> tuple[bool, bool]:
    """(left, right): does a join of type ``how`` keep that side's rows
    as they are? Only then may a filter on its columns move below the
    join, and only then does a filter below the join constrain the
    join's output rows: an outer join pads the other side's unmatched
    rows with NULLs, which a filter above it sees and one below it does
    not."""
    how = how.lower().replace("_", "")
    if how == "inner":
        return True, True
    if how in ("left", "leftouter"):
        return True, False
    if how in ("right", "rightouter"):
        return False, True
    return False, False  # full / outer, or a type this rule does not know


def _push_filter_once(f: Filter, catalog: Catalog) -> PlanNode:
    """Push one Filter one step down, if legal; ``f`` itself if not."""
    child = f.child
    if isinstance(child, Filter):  # merge adjacent filters
        return Filter(child.child, and_all(conjuncts(f.predicate) + conjuncts(child.predicate)))
    if isinstance(child, Project):
        # swap when every referenced column is a passthrough projection
        passthrough = {
            n for n, e in child.exprs if isinstance(e, Col) and e.name == n
        }
        if f.predicate.columns() <= passthrough:
            return Project(Filter(child.child, f.predicate), child.exprs)
        return f
    if isinstance(child, Join):
        left_cols = set(output_columns(child.left, catalog))
        right_cols = set(output_columns(child.right, catalog))
        to_left, to_right = _preserved_sides(child.how)
        left_terms, right_terms, keep = [], [], []
        for t in conjuncts(f.predicate):
            cols = t.columns()
            if to_left and cols <= left_cols:
                left_terms.append(t)
            elif to_right and cols <= right_cols:
                right_terms.append(t)
            else:
                keep.append(t)
        if not left_terms and not right_terms:
            return f
        new_left = Filter(child.left, and_all(left_terms)) if left_terms else child.left
        new_right = Filter(child.right, and_all(right_terms)) if right_terms else child.right
        new_join = Join(new_left, new_right, child.left_on, child.right_on,
                        how=child.how, fk_one_to_one=child.fk_one_to_one)
        return Filter(new_join, and_all(keep)) if keep else new_join
    if isinstance(child, PREDICTS):
        # a predicate that does not touch the prediction output commutes
        # with the predict operator
        if child.output_col not in f.predicate.columns():
            return child.with_children([Filter(child.child, f.predicate)])
        return f
    return f


class FilterPushdown(Rule):
    """Push filters as far down as possible; merge adjacent filters."""

    name = "filter_pushdown"

    def rewrite(self, node: PlanNode, catalog: Catalog) -> PlanNode:
        if not isinstance(node, Filter):
            return node
        pushed = _push_filter_once(node, catalog)
        if pushed is node:
            return node
        # the push may expose further pushes below: rewrite the new subtree
        return self.apply(pushed, catalog)[0]


def _is_pruned_scan(node: Project) -> bool:
    """A Project of plain column passthroughs over a Scan, or over
    Filters over a Scan: the form ``PruneColumns`` prunes a Scan into."""
    if not all(isinstance(e, Col) and e.name == n for n, e in node.exprs):
        return False
    child = node.child
    while isinstance(child, Filter):
        child = child.child
    return isinstance(child, Scan)


def _whole_table(node: PlanNode) -> bool:
    """Every row of a stored table: a Scan under Projects only. A 1:1
    join to anything less drops the rows it does not match."""
    while isinstance(node, Project):
        node = node.child
    return isinstance(node, Scan)


class PruneColumns(Rule):
    """Top-down required-column analysis: trims projections, inserts
    pruned Projects over Scans, and eliminates 1:1 joins whose right
    side is a whole table that contributes nothing but its key.

    A Filter directly on a Scan is pruned above the Filter: below it,
    ``FilterPushdown`` would swap the two, and the next sweep would
    prune again. A converged plan comes back as the same object, with
    no change reported.

    Unlike the other rules, this one keeps its own top-down ``apply``
    in place of a node-local ``rewrite``: the columns a node must
    produce depend on its ancestors, so they are threaded down the
    walk."""

    name = "prune_columns"

    def apply(self, plan: PlanNode, catalog: Catalog) -> tuple[PlanNode, bool]:
        changed = False

        def prune(node: PlanNode, table: str, required: set[str]) -> PlanNode:
            """``node`` (a Scan of ``table``, or a Filter on it) under a
            Project of the ``required`` columns, if it has others."""
            nonlocal changed
            schema = catalog.schemas[table]
            if not set(schema) - required:
                return node
            cols = [c for c in schema if c in required] or schema[:1]
            changed = True
            return Project(node, [(c, Col(c)) for c in cols])

        def rewrite(node: PlanNode, required: set[str] | None) -> PlanNode:
            nonlocal changed
            if isinstance(node, Project):
                if required is None:
                    kept = node.exprs
                else:
                    kept = [(n, e) for n, e in node.exprs if n in required]
                    if not kept:  # keep at least one column for schema sanity
                        kept = node.exprs[:1]
                if required is not None and _is_pruned_scan(node):
                    # already the Project this rule puts over a Scan:
                    # trim it, never prune its Scan again
                    new_child = node.child
                else:
                    child_req = set()
                    for _, e in kept:
                        child_req |= e.columns()
                    new_child = rewrite(node.child, child_req)
                if len(kept) != len(node.exprs):
                    changed = True
                return Project(new_child, kept)
            if isinstance(node, Filter):
                if required is not None and isinstance(node.child, Scan):
                    return prune(node, node.child.table, required)
                child_req = None if required is None else required | node.predicate.columns()
                return Filter(rewrite(node.child, child_req), node.predicate)
            if isinstance(node, PREDICTS):
                ins = set(node.input_cols)
                child_req = (
                    None
                    if required is None
                    else (required - {node.output_col}) | ins
                )
                return node.with_children([rewrite(node.child, child_req)])
            if isinstance(node, UDFNode):
                # unknown column use: everything below stays required
                return node.with_children([rewrite(node.child, None)])
            if isinstance(node, Join):
                left_cols = set(output_columns(node.left, catalog))
                right_cols = set(output_columns(node.right, catalog))
                if required is not None:
                    right_used = (required & right_cols) - {node.right_on, node.left_on}
                    if node.fk_one_to_one and not right_used and _whole_table(node.right):
                        changed = True
                        return rewrite(node.left, required)
                    lr = (required & left_cols) | {node.left_on}
                    rr = (required & right_cols) | {node.right_on}
                else:
                    lr = rr = None
                return Join(
                    rewrite(node.left, lr),
                    rewrite(node.right, rr),
                    node.left_on,
                    node.right_on,
                    how=node.how,
                    fk_one_to_one=node.fk_one_to_one,
                )
            if isinstance(node, Scan):
                return node if required is None else prune(node, node.table, required)
            return node.with_children([rewrite(c, None) for c in node.children])

        # the root's own output is fully required (required=None); pruning
        # starts propagating at the topmost Project/Predict node.
        new_plan = rewrite(plan, None)
        return (new_plan, True) if changed else (plan, False)


def gather_constraints(node: PlanNode) -> dict:
    """Collect per-column constraints implied for every row *entering*
    ``node``'s parent — i.e. from the filters in ``node``'s subtree,
    stopping at renaming projections and at the sides of a join that
    ``_preserved_sides`` does not keep. Used by predicate-based
    pruning."""

    def merge(a: dict, b: dict) -> dict:
        out = dict(a)
        for col, c in b.items():
            out[col] = out[col].meet(c) if col in out else c
        return out

    if isinstance(node, Filter):
        return merge(gather_constraints(node.child), column_constraints(node.predicate))
    if isinstance(node, Project):
        inner = gather_constraints(node.child)
        out = {}
        for n, e in node.exprs:
            if isinstance(e, Col) and e.name in inner:
                out[n] = inner[e.name]
        return out
    if isinstance(node, Join):
        # a filter under an outer join's NULL-padded side does not hold
        # for the padded rows
        out: dict = {}
        for side, preserved in zip(node.children, _preserved_sides(node.how)):
            if preserved:
                out = merge(out, gather_constraints(side))
        return out
    if isinstance(node, PREDICTS):
        return gather_constraints(node.child)
    # a UDFNode may rewrite anything: no guarantees survive
    return {}
