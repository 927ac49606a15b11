"""Predicate/scalar expression language for the Raven IR.

Expressions must serve three masters: SQL generation (``to_sql`` — both
Spark SQL and DuckDB accept the output), column-dependency analysis
(``columns``), and *constraint extraction* (``column_constraints``),
which is what the cross-IR rules consume: a conjunctive predicate yields
per-column intervals / equality bindings that prune decision trees and
fold one-hot blocks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field


def sql_double(v: float) -> str:
    """SQL double literal with round-trip precision. Scientific
    notation ('4.5E0') forces DOUBLE in both Spark and DuckDB, which
    type a bare decimal ('4.5') as DECIMAL; DuckDB's DECIMAL→DOUBLE cast
    does not round correctly (it reads 1970.9999999999998 as 1971.0)."""
    s = f"{float(v):.17g}"
    if "e" in s or "E" in s:
        return s
    return s + "E0"


class Expr:
    def columns(self) -> set[str]:
        raise NotImplementedError

    def to_sql(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:
        return self.to_sql()


@dataclass(repr=False)
class Col(Expr):
    name: str

    def columns(self) -> set[str]:
        return {self.name}

    def to_sql(self) -> str:
        return self.name


@dataclass(repr=False)
class Lit(Expr):
    value: object

    def columns(self) -> set[str]:
        return set()

    def to_sql(self) -> str:
        v = self.value
        if isinstance(v, bool):
            return "TRUE" if v else "FALSE"
        if isinstance(v, str):
            return "'" + v.replace("'", "''") + "'"
        if v is None:
            return "NULL"
        if isinstance(v, float):
            return sql_double(v)
        return repr(v)


_CMP_OPS = {"<", "<=", ">", ">=", "=", "!="}


@dataclass(repr=False)
class Cmp(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in _CMP_OPS:
            raise ValueError(f"bad comparison op {self.op!r}")

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def to_sql(self) -> str:
        op = "<>" if self.op == "!=" else self.op
        return f"({self.left.to_sql()} {op} {self.right.to_sql()})"


@dataclass(repr=False)
class And(Expr):
    terms: list[Expr] = field(default_factory=list)

    def columns(self) -> set[str]:
        return set().union(*(t.columns() for t in self.terms)) if self.terms else set()

    def to_sql(self) -> str:
        return "(" + " AND ".join(t.to_sql() for t in self.terms) + ")"


@dataclass(repr=False)
class Or(Expr):
    left: Expr
    right: Expr

    def columns(self) -> set[str]:
        return self.left.columns() | self.right.columns()

    def to_sql(self) -> str:
        return f"({self.left.to_sql()} OR {self.right.to_sql()})"


@dataclass(repr=False)
class Not(Expr):
    term: Expr

    def columns(self) -> set[str]:
        return self.term.columns()

    def to_sql(self) -> str:
        return f"(NOT {self.term.to_sql()})"


def conjuncts(e: Expr | None) -> list[Expr]:
    """Flatten nested ANDs into a conjunct list."""
    if e is None:
        return []
    if isinstance(e, And):
        out: list[Expr] = []
        for t in e.terms:
            out.extend(conjuncts(t))
        return out
    return [e]


def and_all(terms: list[Expr]) -> Expr | None:
    """Rebuild a conjunction (None for empty, bare term for singleton)."""
    if not terms:
        return None
    if len(terms) == 1:
        return terms[0]
    return And(terms)


@dataclass
class Constraint:
    """What a conjunctive predicate pins down about one column.

    ``lo``/``hi`` are an interval (with strictness flags) for numeric
    columns; ``eq`` is an exact binding (numeric or categorical).
    Contradictions are not detected here — rules only need soundness
    ("the constraint is implied by the predicate"), not completeness.
    """

    lo: float = -math.inf
    lo_strict: bool = False
    hi: float = math.inf
    hi_strict: bool = False
    eq: object | None = None

    def meet(self, other: "Constraint") -> "Constraint":
        """What ``self`` and ``other`` imply together: the tighter bound
        on each side, strict winning a tie, and the first binding."""
        lo, lo_strict = max((self.lo, self.lo_strict), (other.lo, other.lo_strict))
        hi, hi_closed = min((self.hi, not self.hi_strict), (other.hi, not other.hi_strict))
        return Constraint(lo=lo, lo_strict=lo_strict, hi=hi, hi_strict=not hi_closed,
                          eq=self.eq if self.eq is not None else other.eq)

    def implies_le(self, t: float) -> bool:
        """Does the constraint guarantee ``col <= t``?"""
        if self.eq is not None and isinstance(self.eq, (int, float)) and not isinstance(self.eq, bool):
            return self.eq <= t
        return self.hi <= t  # sound for both strict and closed upper bounds

    def implies_gt(self, t: float) -> bool:
        """Does the constraint guarantee ``col > t``?"""
        if self.eq is not None and isinstance(self.eq, (int, float)) and not isinstance(self.eq, bool):
            return self.eq > t
        if self.lo_strict:
            return self.lo >= t
        return self.lo > t


def column_constraints(e: Expr | None) -> dict[str, Constraint]:
    """Extract per-column constraints from the conjuncts of ``e`` that
    have shape ``col op literal`` (or ``literal op col``). Conjuncts of
    any other shape are ignored (sound: ignoring a conjunct only loses
    information). OR/NOT terms are ignored entirely for the same reason."""
    out: dict[str, Constraint] = {}
    for term in conjuncts(e):
        if not isinstance(term, Cmp):
            continue
        left, right, op = term.left, term.right, term.op
        if isinstance(right, Col) and isinstance(left, Lit):
            # normalize: lit op col  ->  col flipped-op lit
            flip = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "=": "=", "!=": "!="}
            left, right, op = right, left, flip[op]
        if not (isinstance(left, Col) and isinstance(right, Lit)):
            continue
        v = right.value
        numeric = isinstance(v, (int, float)) and not isinstance(v, bool)
        if op == "=":
            term_c = Constraint(lo=float(v), hi=float(v), eq=v) if numeric else Constraint(eq=v)
        elif numeric and op in ("<", "<="):
            term_c = Constraint(hi=float(v), hi_strict=op == "<")
        elif numeric and op in (">", ">="):
            term_c = Constraint(lo=float(v), lo_strict=op == ">")
        else:
            continue  # categorical != is ignored (no pruning value for our rules)
        out[left.name] = out.get(left.name, Constraint()).meet(term_c)
    return out
