"""SQL-subset parser producing Raven IR.

Supported shape (covers the paper's inference queries; translating SQL
to IR is "straightforward" per §3.2, so the subset is deliberately the
one the experiments need)::

    SELECT <item, ...>
    FROM t1 [JOIN t2 ON a = b]*
    [WHERE <boolean expression over comparisons, AND/OR/NOT, parens>]

where an item is ``*``, ``col``, ``col AS alias``, or the SQL Server
2017-style model invocation ``PREDICT(MODEL name, col, ...) AS alias``.

Placement logic: WHERE conjuncts that reference only base columns
become a Filter *below* the predict (the relational optimizer will push
them further); conjuncts referencing the prediction alias filter
*above* it. Join ``fk_one_to_one`` is set by ``ir.plan.join_is_one_to_one``,
the rule the script analyzer also uses.
"""
from __future__ import annotations

import re
from dataclasses import dataclass

from repro.ir import (
    And,
    Cmp,
    Col,
    Filter,
    Join,
    Lit,
    MLPredict,
    Not,
    Or,
    PlanNode,
    Project,
    Scan,
    and_all,
    conjuncts,
)
from repro.ir.plan import Catalog, join_is_one_to_one, output_columns

_TOKEN_RE = re.compile(
    r"""
    \s*(
        (?P<string>'(?:[^']|'')*')
      | (?P<number>-?\d+(?:\.\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op><=|>=|<>|!=|=|<|>|\(|\)|,|\*)
    )
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "SELECT", "FROM", "JOIN", "ON", "WHERE", "AND", "OR", "NOT", "AS",
    "PREDICT", "MODEL",
}


@dataclass
class _Tok:
    kind: str  # string|number|ident|op|kw
    text: str


def _tokenize(sql: str) -> list[_Tok]:
    toks: list[_Tok] = []
    pos = 0
    while pos < len(sql):
        m = _TOKEN_RE.match(sql, pos)
        if not m:
            if sql[pos:].strip() == "":
                break
            raise SyntaxError(f"cannot tokenize at: {sql[pos:pos+20]!r}")
        pos = m.end()
        kind = next(k for k in ("string", "number", "ident", "op") if m.group(k))
        if kind == "ident" and m.group("ident").upper() in _KEYWORDS:
            toks.append(_Tok("kw", m.group("ident").upper()))
        else:
            toks.append(_Tok(kind, m.group(kind)))
    return toks


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.i = 0

    def peek(self) -> _Tok | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self) -> _Tok:
        t = self.peek()
        if t is None:
            raise SyntaxError("unexpected end of query")
        self.i += 1
        return t

    def expect_kw(self, kw: str) -> None:
        t = self.next()
        if t.kind != "kw" or t.text != kw:
            raise SyntaxError(f"expected {kw}, got {t.text!r}")

    def expect_op(self, op: str) -> None:
        t = self.next()
        if t.kind != "op" or t.text != op:
            raise SyntaxError(f"expected {op!r}, got {t.text!r}")

    def at_kw(self, kw: str) -> bool:
        t = self.peek()
        return t is not None and t.kind == "kw" and t.text == kw

    def at_op(self, op: str) -> bool:
        t = self.peek()
        return t is not None and t.kind == "op" and t.text == op

    # ---------------------------------------------------------- grammar
    def parse_query(self):
        self.expect_kw("SELECT")
        items = self.parse_select_list()
        self.expect_kw("FROM")
        tables: list[str] = [self.next().text]
        joins: list[tuple[str, str, str]] = []
        while self.at_kw("JOIN"):
            self.next()
            t = self.next().text
            self.expect_kw("ON")
            a = self.next().text
            self.expect_op("=")
            b = self.next().text
            tables.append(t)
            joins.append((t, a, b))
        where = None
        if self.at_kw("WHERE"):
            self.next()
            where = self.parse_disj()
        if self.peek() is not None:
            raise SyntaxError(f"trailing tokens: {self.peek().text!r}")
        return items, tables, joins, where

    def parse_select_list(self):
        items = [self.parse_item()]
        while self.at_op(","):
            self.next()
            items.append(self.parse_item())
        return items

    def parse_item(self):
        if self.at_op("*"):
            self.next()
            return ("star", None, None)
        if self.at_kw("PREDICT"):
            self.next()
            self.expect_op("(")
            self.expect_kw("MODEL")
            model = self.next().text
            cols: list[str] = []
            while self.at_op(","):
                self.next()
                cols.append(self.next().text)
            self.expect_op(")")
            alias = None
            if self.at_kw("AS"):
                self.next()
                alias = self.next().text
            if alias is None:
                raise SyntaxError("PREDICT(...) requires AS alias")
            return ("predict", (model, cols), alias)
        name = self.next().text
        alias = name
        if self.at_kw("AS"):
            self.next()
            alias = self.next().text
        return ("col", name, alias)

    def parse_disj(self):
        e = self.parse_conj()
        while self.at_kw("OR"):
            self.next()
            e = Or(e, self.parse_conj())
        return e

    def parse_conj(self):
        terms = [self.parse_atom()]
        while self.at_kw("AND"):
            self.next()
            terms.append(self.parse_atom())
        return terms[0] if len(terms) == 1 else And(terms)

    def parse_atom(self):
        if self.at_kw("NOT"):
            self.next()
            return Not(self.parse_atom())
        if self.at_op("("):
            self.next()
            e = self.parse_disj()
            self.expect_op(")")
            return e
        left = self.parse_operand()
        opt = self.next()
        if opt.kind != "op" or opt.text not in {"<", "<=", ">", ">=", "=", "<>", "!="}:
            raise SyntaxError(f"expected comparison, got {opt.text!r}")
        op = "!=" if opt.text in {"<>", "!="} else opt.text
        right = self.parse_operand()
        return Cmp(op, left, right)

    def parse_operand(self):
        t = self.next()
        if t.kind == "ident":
            return Col(t.text)
        if t.kind == "number":
            txt = t.text
            return Lit(float(txt) if "." in txt else int(txt))
        if t.kind == "string":
            return Lit(t.text[1:-1].replace("''", "'"))
        raise SyntaxError(f"bad operand {t.text!r}")


def parse_inference_query(
    sql: str, catalog: Catalog, models: dict[str, tuple]
) -> PlanNode:
    """Parse ``sql`` into an IR plan.

    ``models`` maps model name → ``(pipeline, kind)`` where kind is the
    MLPredict output flavour ("label" / "proba" / "score").
    """
    items, tables, joins, where = _Parser(_tokenize(sql)).parse_query()
    for t in tables:
        if t not in catalog.schemas:
            raise KeyError(f"unknown table {t!r}")

    plan: PlanNode = Scan(tables[0])
    for t, a, b in joins:
        right_cols = set(catalog.schemas[t])
        left_cols = set(output_columns(plan, catalog))
        # resolve which key belongs to which side
        if a in left_cols and b in right_cols:
            lk, rk = a, b
        elif b in left_cols and a in right_cols:
            lk, rk = b, a
        else:
            raise KeyError(f"cannot resolve join keys {a}={b}")
        right = Scan(t)
        plan = Join(plan, right, lk, rk,
                    fk_one_to_one=join_is_one_to_one(plan, right, lk, rk, catalog))

    base_cols = set(output_columns(plan, catalog))
    predict_items = [(spec, alias) for k, spec, alias in items if k == "predict"]
    aliases = {alias for _, alias in predict_items}

    # WHERE conjuncts on base columns go below the predict
    pre_terms, post_terms = [], []
    for term in conjuncts(where):
        (post_terms if term.columns() & aliases else pre_terms).append(term)
    pre = and_all(pre_terms)
    if pre is not None:
        unknown = pre.columns() - base_cols
        if unknown:
            raise KeyError(f"unknown WHERE columns {sorted(unknown)}")
        plan = Filter(plan, pre)

    for (model, cols), alias in predict_items:
        if model not in models:
            raise KeyError(f"unknown model {model!r}")
        pipeline, kind = models[model]
        need = list(pipeline.input_cols)
        if cols and set(cols) != set(need):
            raise ValueError(
                f"PREDICT column list {cols} != model input columns {need}"
            )
        plan = MLPredict(plan, model, pipeline, alias, kind=kind)

    post = and_all(post_terms)
    if post is not None:
        plan = Filter(plan, post)

    if not any(k == "star" for k, _, _ in items):
        exprs = []
        for k, spec, alias in items:
            if k == "col":
                exprs.append((alias, Col(spec)))
            elif k == "predict":
                exprs.append((alias, Col(alias)))
        plan = Project(plan, exprs)
    return plan
