"""Unit tests for the IR expression language and plan utilities."""
import numpy as np
import pandas as pd
import pytest

from repro.ir import (
    And,
    Catalog,
    Cmp,
    Col,
    Filter,
    Join,
    Lit,
    MLPredict,
    Not,
    Or,
    Project,
    Scan,
    UDFNode,
    and_all,
    column_constraints,
    conjuncts,
    count_nodes,
    output_columns,
    pretty,
    transform_bottom_up,
    walk,
)
from repro.miniml import DecisionTree, Pipeline, TableFeaturizer


class TestExprSql:
    @pytest.mark.parametrize(
        "expr,sql",
        [
            (Cmp("<=", Col("age"), Lit(35)), "(age <= 35)"),
            (Cmp("=", Col("pregnant"), Lit(1)), "(pregnant = 1)"),
            (Cmp("!=", Col("a"), Lit(2)), "(a <> 2)"),
            (Cmp("=", Col("dest"), Lit("JFK")), "(dest = 'JFK')"),
            (Cmp("=", Col("s"), Lit("O'Hare")), "(s = 'O''Hare')"),
            (Cmp(">", Col("x"), Lit(1.5)), "(x > 1.5E0)"),
            (Not(Cmp("=", Col("x"), Lit(1))), "(NOT (x = 1))"),
            (
                Or(Cmp("<", Col("x"), Lit(1)), Cmp(">", Col("x"), Lit(2))),
                "((x < 1) OR (x > 2))",
            ),
            (Cmp("=", Col("b"), Lit(True)), "(b = TRUE)"),
        ],
    )
    def test_to_sql(self, expr, sql):
        assert expr.to_sql() == sql

    def test_and_to_sql(self):
        e = And([Cmp("=", Col("a"), Lit(1)), Cmp("<", Col("b"), Lit(2))])
        assert e.to_sql() == "((a = 1) AND (b < 2))"

    def test_bad_op_raises(self):
        with pytest.raises(ValueError):
            Cmp("===", Col("a"), Lit(1))

    def test_columns(self):
        e = And([Cmp("=", Col("a"), Lit(1)), Cmp("<", Col("b"), Col("c"))])
        assert e.columns() == {"a", "b", "c"}

    def test_spark_and_duckdb_accept_sql(self, spark):
        import duckdb

        pdf = pd.DataFrame({"age": [30, 40], "dest": ["JFK", "SEA"]})
        e = And([Cmp(">", Col("age"), Lit(35)), Cmp("=", Col("dest"), Lit("SEA"))])
        got = spark.createDataFrame(pdf).where(e.to_sql()).toPandas()
        con = duckdb.connect()
        con.register("t", pdf)
        exp = con.execute(f"SELECT * FROM t WHERE {e.to_sql()}").fetchdf()
        con.close()
        pd.testing.assert_frame_equal(
            got.reset_index(drop=True), exp.reset_index(drop=True)
        )

    def test_float_literal_is_the_same_double_in_spark_and_duckdb(self, spark):
        """A float literal renders as a DOUBLE. Read as a DECIMAL,
        DuckDB's cast to DOUBLE turns 1970.9999999999998 into 1971.0
        and lets the 1971.0 row through the filter."""
        from repro.oracle import assert_equivalent
        from repro.runtime.codegen import to_dataframe

        v = 1970.9999999999998
        pdf = pd.DataFrame({"x": [1970.0, v, 1971.0, 1972.0]})
        pred = Cmp("<=", Col("x"), Lit(v))
        df = to_dataframe(Filter(Scan("t"), pred), spark, {"t": spark.createDataFrame(pdf)})
        assert sorted(df.toPandas()["x"]) == [1970.0, v]
        assert_equivalent(df, f"SELECT x FROM t WHERE {pred.to_sql()}", t=pdf)


class TestConjunctsConstraints:
    def test_conjuncts_flatten(self):
        e = And([Cmp("=", Col("a"), Lit(1)), And([Cmp("<", Col("b"), Lit(2)), Cmp(">", Col("c"), Lit(3))])])
        assert len(conjuncts(e)) == 3

    def test_and_all_roundtrip(self):
        assert and_all([]) is None
        single = Cmp("=", Col("a"), Lit(1))
        assert and_all([single]) is single

    def test_equality_constraint(self):
        c = column_constraints(Cmp("=", Col("pregnant"), Lit(1)))["pregnant"]
        assert c.eq == 1
        assert c.implies_le(1.0) and c.implies_gt(0.5)

    def test_interval_constraints(self):
        e = And([Cmp(">=", Col("age"), Lit(20)), Cmp("<", Col("age"), Lit(30))])
        c = column_constraints(e)["age"]
        assert c.lo == 20 and not c.lo_strict
        assert c.hi == 30 and c.hi_strict
        assert c.implies_le(30) and c.implies_le(35)
        assert not c.implies_le(25)
        assert c.implies_gt(19) and not c.implies_gt(20)

    def test_strict_lower(self):
        c = column_constraints(Cmp(">", Col("x"), Lit(5)))["x"]
        assert c.implies_gt(5)

    def test_string_equality(self):
        c = column_constraints(Cmp("=", Col("dest"), Lit("JFK")))["dest"]
        assert c.eq == "JFK"

    def test_reversed_literal_comparison(self):
        c = column_constraints(Cmp(">", Lit(5), Col("x")))["x"]  # 5 > x
        assert c.implies_le(5)

    def test_or_ignored(self):
        e = Or(Cmp("=", Col("a"), Lit(1)), Cmp("=", Col("a"), Lit(2)))
        assert column_constraints(e) == {}

    def test_tightening(self):
        e = And([Cmp("<", Col("x"), Lit(10)), Cmp("<", Col("x"), Lit(5))])
        assert column_constraints(e)["x"].hi == 5


def _catalog():
    return (
        Catalog()
        .add_table("patient_info", ["pid", "age", "gender", "pregnant"], {"pid"})
        .add_table("blood_tests", ["pid", "bp"], {"pid"})
    )


def _plan():
    j = Join(Scan("patient_info"), Scan("blood_tests"), "pid", "pid", fk_one_to_one=True)
    f = Filter(j, Cmp("=", Col("pregnant"), Lit(1)))
    return Project(f, [("age", Col("age")), ("bp", Col("bp"))])


class TestPlanUtils:
    def test_walk_postorder(self):
        labels = [type(n).__name__ for n in walk(_plan())]
        assert labels == ["Scan", "Scan", "Join", "Filter", "Project"]

    def test_count_nodes(self):
        assert count_nodes(_plan()) == 5

    def test_output_columns(self):
        cat = _catalog()
        p = _plan()
        assert output_columns(p, cat) == ["age", "bp"]
        assert output_columns(p.child, cat) == ["pid", "age", "gender", "pregnant", "bp"]

    def test_output_columns_ambiguous_join_raises(self):
        cat = (
            Catalog()
            .add_table("a", ["k", "x"], {"k"})
            .add_table("b", ["k", "x"], {"k"})
        )
        with pytest.raises(ValueError, match="ambiguous"):
            output_columns(Join(Scan("a"), Scan("b"), "k", "k"), cat)

    def test_transform_bottom_up_replaces(self):
        p = _plan()

        def drop_filters(n):
            if isinstance(n, Filter):
                return n.child
            return n

        q = transform_bottom_up(p, drop_filters)
        assert not any(isinstance(n, Filter) for n in walk(q))
        # original untouched children structure still has the filter
        assert any(isinstance(n, Filter) for n in walk(p))

    def test_pretty_renders_tree(self):
        s = pretty(_plan())
        assert "Join(pid=pid, 1:1)" in s
        assert "Filter((pregnant = 1))" in s


class TestPredictNodes:
    def _pipe(self):
        rng = np.random.default_rng(0)
        df = pd.DataFrame({"age": rng.integers(18, 90, 200).astype(float)})
        y = (df["age"] > 50).astype(int).to_numpy()
        return Pipeline(
            TableFeaturizer(numeric_cols=["age"], scale=False),
            DecisionTree(max_depth=2, min_samples_leaf=1),
        ).fit(df, y)

    def test_mlpredict_label(self):
        pipe = self._pipe()
        node = MLPredict(Scan("t"), "m", pipe, "pred", kind="label")
        pdf = pd.DataFrame({"age": [20.0, 80.0]})
        np.testing.assert_allclose(node.predict_pandas(pdf), [0.0, 1.0])
        assert node.input_cols == ["age"]

    def test_mlpredict_proba_bounds(self):
        pipe = self._pipe()
        node = MLPredict(Scan("t"), "m", pipe, "pred", kind="proba")
        out = node.predict_pandas(pd.DataFrame({"age": [20.0, 80.0]}))
        assert ((out >= 0) & (out <= 1)).all()

    def test_mlpredict_bad_kind(self):
        node = MLPredict(Scan("t"), "m", self._pipe(), "pred", kind="nope")
        with pytest.raises(ValueError):
            node.predict_pandas(pd.DataFrame({"age": [20.0]}))

    def test_udf_node_children(self):
        u = UDFNode(Scan("t"), fn=lambda pdf: pdf, description="noop")
        assert len(u.children) == 1
        assert "noop" in u.label()
