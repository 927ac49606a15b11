"""Static analysis of Python model-pipeline scripts (§3.2).

Pipeline: parse (``ast``) → per-statement dataflow extraction with a
variable environment (scopes are flat in the supported scripts) → map
recognized pandas / model API calls to IR operators via the knowledge
base → UDF fallback for everything else.

Design points taken from the paper:

* **straight-line code** is fully analyzed; loops/comprehensions and
  unknown calls become black-box UDF operators (still *executable*: the
  fallback compiles the original source and runs it over pandas
  batches);
* **conditionals** fork the analysis — one IR plan per execution path;
* the result records analysis latency, since the paper reports <10 ms
  per script (our Table T8).
"""
from __future__ import annotations

import ast
import time
from dataclasses import dataclass, field

from repro.analyzer.knowledge import SUPPORTED_METHODS, UNSUPPORTED_CONSTRUCTS
from repro.ir import (
    Cmp,
    Col,
    Filter,
    Join,
    Lit,
    MLPredict,
    PlanNode,
    Project,
    Scan,
    UDFNode,
)
from repro.ir.plan import Catalog, join_is_one_to_one

_CMP_MAP = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
    ast.Eq: "=", ast.NotEq: "!=",
}


@dataclass
class AnalysisResult:
    """Outcome of analyzing one script."""

    plans: list[PlanNode]
    udf_count: int = 0
    elapsed_ms: float = 0.0
    notes: list[str] = field(default_factory=list)


def _make_python_udf(src: str, in_var: str, out_var: str):
    """Compile an unanalyzable statement into a pandas-batch function.
    The statement runs with ``in_var`` bound to the batch; the value of
    ``out_var`` afterwards is the result frame."""
    code = compile(src, "<udf>", "exec")

    def fn(pdf):
        import numpy as np
        import pandas as pd

        env = {in_var: pdf.copy(), "np": np, "pd": pd}
        exec(code, env)
        return env[out_var]

    return fn


class _Env:
    """One execution path's variable environment: name → IR plan (for
    frame variables) or a tag for other things."""

    def __init__(self, plans: dict[str, PlanNode]):
        self.frames: dict[str, PlanNode] = dict(plans)
        self.last_assigned: str | None = None

    def copy(self) -> "_Env":
        e = _Env(self.frames)
        e.last_assigned = self.last_assigned
        return e


class _ScriptAnalyzer:
    def __init__(self, catalog: Catalog, models: dict[str, tuple]):
        self.catalog = catalog
        self.models = models
        self.udf_count = 0
        self.notes: list[str] = []

    # ------------------------------------------------------ expression
    def _expr_to_plan(self, node: ast.expr, env: _Env) -> PlanNode | None:
        """Map an expression AST to an IR plan, or None if unmappable."""
        if isinstance(node, ast.Name):
            return env.frames.get(node.id)

        # df[...] subscripts
        if isinstance(node, ast.Subscript):
            base = self._expr_to_plan(node.value, env)
            if base is None:
                return None
            sl = node.slice
            # df[["a","b"]] -> Project
            if isinstance(sl, ast.List) and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str)
                for e in sl.elts
            ):
                cols = [e.value for e in sl.elts]
                return Project(base, [(c, Col(c)) for c in cols])
            # df[df["c"] > 3] / df[df.c > 3] -> Filter
            pred = self._mask_to_expr(sl, env)
            if pred is not None:
                return Filter(base, pred)
            return None

        # method calls
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            meth = node.func.attr
            if meth not in SUPPORTED_METHODS:
                return None
            _, handler = SUPPORTED_METHODS[meth]
            if handler == "join":
                left = self._expr_to_plan(node.func.value, env)
                right = (
                    self._expr_to_plan(node.args[0], env) if node.args else None
                )
                on = None
                for kw in node.keywords:
                    if kw.arg == "on" and isinstance(kw.value, ast.Constant):
                        on = kw.value.value
                if left is None or right is None or on is None:
                    return None
                one = join_is_one_to_one(left, right, on, on, self.catalog)
                return Join(left, right, on, on, fk_one_to_one=one)
            if handler in {"predict", "predict_proba", "predict_score"}:
                obj = node.func.value
                if not (isinstance(obj, ast.Name) and obj.id in self.models):
                    return None
                data = self._expr_to_plan(node.args[0], env) if node.args else None
                if data is None:
                    return None
                pipeline, kind = self.models[obj.id]
                if handler == "predict_proba":
                    kind = "proba"
                elif handler == "predict_score":
                    kind = "score"
                return MLPredict(data, obj.id, pipeline, "prediction", kind=kind)
        return None

    def _mask_to_expr(self, node: ast.expr, env: _Env):
        """df["c"] > 3  /  df.c == 1  → Cmp IR expression."""
        if not (isinstance(node, ast.Compare) and len(node.ops) == 1):
            return None
        op_t = type(node.ops[0])
        if op_t not in _CMP_MAP:
            return None
        col = self._column_ref(node.left)
        lit = node.comparators[0]
        if col is None or not isinstance(lit, ast.Constant):
            return None
        return Cmp(_CMP_MAP[op_t], Col(col), Lit(lit.value))

    @staticmethod
    def _column_ref(node: ast.expr) -> str | None:
        # df["col"] or df.col
        if (
            isinstance(node, ast.Subscript)
            and isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
        ):
            return node.slice.value
        if isinstance(node, ast.Attribute):
            return node.attr
        return None

    # ------------------------------------------------------- statements
    def analyze_body(self, body: list[ast.stmt], envs: list[_Env], src_lines: list[str]) -> list[_Env]:
        for stmt in body:
            if isinstance(stmt, ast.If):
                # one plan per execution path (paper §3.2)
                then_envs = self.analyze_body(stmt.body, [e.copy() for e in envs], src_lines)
                else_envs = (
                    self.analyze_body(stmt.orelse, [e.copy() for e in envs], src_lines)
                    if stmt.orelse
                    else [e.copy() for e in envs]
                )
                envs = then_envs + else_envs
                continue
            envs = [self._analyze_stmt(stmt, e, src_lines) for e in envs]
        return envs

    def _analyze_stmt(self, stmt: ast.stmt, env: _Env, src_lines: list[str]) -> _Env:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            return env
        if type(stmt).__name__ in UNSUPPORTED_CONSTRUCTS:
            return self._udf_fallback(stmt, env, src_lines)
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and isinstance(
            stmt.targets[0], ast.Name
        ):
            target = stmt.targets[0].id
            plan = self._expr_to_plan(stmt.value, env)
            if plan is not None:
                env.frames[target] = plan
                env.last_assigned = target
                return env
            return self._udf_fallback(stmt, env, src_lines, target=target)
        if isinstance(stmt, ast.Expr):
            # bare expression (e.g. display call): ignore
            return env
        return self._udf_fallback(stmt, env, src_lines)

    def _udf_fallback(
        self, stmt: ast.stmt, env: _Env, src_lines: list[str], target: str | None = None
    ) -> _Env:
        """Wrap the statement as a black-box UDF over the single frame
        variable it references (if resolvable)."""
        self.udf_count += 1
        refs = [
            n.id
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and n.id in env.frames
        ]
        src = ast.get_source_segment("\n".join(src_lines), stmt) or ast.unparse(stmt)
        if not refs:
            self.notes.append(f"dropped unanalyzable statement: {src[:60]}")
            return env
        in_var = refs[0]
        out_var = target or in_var
        fn = _make_python_udf(src, in_var, out_var)
        env.frames[out_var] = UDFNode(
            env.frames[in_var], fn, description=src[:60]
        )
        env.last_assigned = out_var
        return env


def analyze_script(
    script: str,
    catalog: Catalog,
    models: dict[str, tuple],
    result_var: str | None = None,
) -> AnalysisResult:
    """Analyze ``script``; table names in the catalog are bound as frame
    variables. Returns one plan per execution path, rooted at
    ``result_var`` (default: the last assigned variable on each path)."""
    t0 = time.perf_counter()
    tree = ast.parse(script)
    src_lines = script.splitlines()
    az = _ScriptAnalyzer(catalog, models)
    base = _Env({t: Scan(t) for t in catalog.schemas})
    envs = az.analyze_body(tree.body, [base], src_lines)
    plans = []
    for env in envs:
        var = result_var or env.last_assigned
        if var is None or var not in env.frames:
            raise ValueError(f"result variable {var!r} not produced by script")
        plans.append(env.frames[var])
    elapsed = (time.perf_counter() - t0) * 1000
    return AnalysisResult(
        plans=plans, udf_count=az.udf_count, elapsed_ms=elapsed, notes=az.notes
    )
