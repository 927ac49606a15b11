"""Tests for the standard relational rules (filter pushdown, column
pruning, join elimination), incl. DuckDB-oracle equivalence through the
Spark codegen."""
import numpy as np
import pandas as pd
import pytest

from repro.datasets import hospital
from repro.ir import (
    And,
    Catalog,
    Cmp,
    Col,
    Filter,
    Join,
    Lit,
    MLPredict,
    Project,
    Scan,
    UDFNode,
    column_constraints,
    output_columns,
    walk,
)
from repro.ir.plan import pretty
from repro.miniml import DecisionTree, Pipeline, TableFeaturizer
from repro.optimizer import CrossOptimizer, default_rules
from repro.optimizer.relational import FilterPushdown, PruneColumns, gather_constraints
from repro.oracle import _canon, assert_equivalent
from repro.runtime.codegen import to_dataframe


@pytest.fixture(scope="module")
def catalog():
    return (
        Catalog()
        .add_table("patient_info", ["pid", "age", "gender", "pregnant", "smoker"], {"pid"})
        .add_table("blood_tests", ["pid", "bp", "hematocrit", "glucose"], {"pid"})
        .add_table("prenatal_tests", ["pid", "trimester", "fetal_hr"], {"pid"})
    )


def _join3():
    j1 = Join(Scan("patient_info"), Scan("blood_tests"), "pid", "pid", fk_one_to_one=True)
    return Join(j1, Scan("prenatal_tests"), "pid", "pid", fk_one_to_one=True)


def _stacked_projects(plan):
    """Projects sitting directly on a Project with the same output names."""
    return [
        n for n in walk(plan)
        if isinstance(n, Project) and isinstance(n.child, Project)
        and n.output_names == n.child.output_names
    ]


class TestFilterPushdown:
    def test_filter_splits_across_join(self, catalog):
        pred = And([Cmp("=", Col("pregnant"), Lit(1)), Cmp(">", Col("bp"), Lit(120))])
        plan = Filter(Join(Scan("patient_info"), Scan("blood_tests"), "pid", "pid"), pred)
        out, changed = FilterPushdown().apply(plan, catalog)
        assert changed
        assert isinstance(out, Join)
        assert isinstance(out.left, Filter) and out.left.predicate.columns() == {"pregnant"}
        assert isinstance(out.right, Filter) and out.right.predicate.columns() == {"bp"}

    def test_cross_side_conjunct_stays(self, catalog):
        pred = Cmp("<", Col("age"), Col("bp"))
        plan = Filter(Join(Scan("patient_info"), Scan("blood_tests"), "pid", "pid"), pred)
        out, changed = FilterPushdown().apply(plan, catalog)
        assert not changed
        assert isinstance(out, Filter)

    def test_adjacent_filters_merge(self, catalog):
        plan = Filter(
            Filter(Scan("patient_info"), Cmp(">", Col("age"), Lit(30))),
            Cmp("=", Col("pregnant"), Lit(1)),
        )
        out, changed = FilterPushdown().apply(plan, catalog)
        assert changed
        assert isinstance(out, Filter) and isinstance(out.child, Scan)
        assert len([n for n in walk(out) if isinstance(n, Filter)]) == 1

    def test_filter_through_passthrough_project(self, catalog):
        plan = Filter(
            Project(Scan("patient_info"), [("age", Col("age")), ("pid", Col("pid"))]),
            Cmp(">", Col("age"), Lit(30)),
        )
        out, changed = FilterPushdown().apply(plan, catalog)
        assert changed
        assert isinstance(out, Project) and isinstance(out.child, Filter)

    def test_filter_blocked_by_renaming_project(self, catalog):
        plan = Filter(
            Project(Scan("patient_info"), [("years", Col("age"))]),
            Cmp(">", Col("years"), Lit(30)),
        )
        out, changed = FilterPushdown().apply(plan, catalog)
        assert not changed

    def test_filter_commutes_with_predict(self, catalog):
        pipe = Pipeline(TableFeaturizer(numeric_cols=["age"], scale=False), DecisionTree())
        rng = np.random.default_rng(0)
        df = pd.DataFrame({"age": rng.integers(18, 90, 50).astype(float)})
        pipe.fit(df, (df["age"] > 50).astype(int).to_numpy())
        plan = Filter(
            MLPredict(Scan("patient_info"), "m", pipe, "pred"),
            Cmp(">", Col("age"), Lit(30)),
        )
        out, changed = FilterPushdown().apply(plan, catalog)
        assert changed
        assert isinstance(out, MLPredict) and isinstance(out.child, Filter)

    def test_filter_on_prediction_stays_above(self, catalog):
        pipe = Pipeline(TableFeaturizer(numeric_cols=["age"], scale=False), DecisionTree())
        rng = np.random.default_rng(0)
        df = pd.DataFrame({"age": rng.integers(18, 90, 50).astype(float)})
        pipe.fit(df, (df["age"] > 50).astype(int).to_numpy())
        plan = Filter(
            MLPredict(Scan("patient_info"), "m", pipe, "pred"),
            Cmp(">", Col("pred"), Lit(0)),
        )
        out, changed = FilterPushdown().apply(plan, catalog)
        assert not changed

    def test_semantics_with_oracle(self, spark, catalog):
        t = hospital.tables(500, seed=3)
        tables = {k: spark.createDataFrame(v) for k, v in t.items()}
        pred = And([Cmp("=", Col("pregnant"), Lit(1)), Cmp(">", Col("bp"), Lit(115))])
        plan = Project(
            Filter(_join3(), pred),
            [("pid", Col("pid")), ("age", Col("age")), ("bp", Col("bp"))],
        )
        out, _ = FilterPushdown().apply(plan, catalog)
        df = to_dataframe(out, spark, tables)
        assert_equivalent(
            df,
            "SELECT p.pid AS pid, p.age AS age, b.bp AS bp "
            "FROM patient_info p JOIN blood_tests b ON p.pid = b.pid "
            "JOIN prenatal_tests pr ON p.pid = pr.pid "
            "WHERE p.pregnant = 1 AND b.bp > 115",
            patient_info=t["patient_info"],
            blood_tests=t["blood_tests"],
            prenatal_tests=t["prenatal_tests"],
        )


    @pytest.mark.parametrize("how,pushed_left,pushed_right", [
        ("inner", True, True),
        ("left", True, False),
        ("left_outer", True, False),
        ("right", False, True),
        ("full", False, False),
        ("outer", False, False),
    ])
    def test_outer_join_pushes_into_preserved_side_only(self, catalog, how,
                                                        pushed_left, pushed_right):
        pred = And([Cmp("=", Col("pregnant"), Lit(1)), Cmp(">", Col("bp"), Lit(120))])
        join = Join(Scan("patient_info"), Scan("blood_tests"), "pid", "pid", how=how)
        out, changed = FilterPushdown().apply(Filter(join, pred), catalog)
        assert changed == (pushed_left or pushed_right)
        join_out = out if isinstance(out, Join) else out.child
        assert isinstance(join_out.left, Filter) == pushed_left
        assert isinstance(join_out.right, Filter) == pushed_right
        kept = set() if isinstance(out, Join) else out.predicate.columns()
        assert ("pregnant" in kept) != pushed_left
        assert ("bp" in kept) != pushed_right

    def test_left_join_right_predicate_keeps_results(self, spark, catalog):
        t = hospital.tables(400, seed=4)
        blood = t["blood_tests"]
        blood = blood[blood["pid"] % 3 != 0]  # a third of the patients: no match
        tables = {"patient_info": spark.createDataFrame(t["patient_info"]),
                  "blood_tests": spark.createDataFrame(blood)}
        plan = Project(
            Filter(Join(Scan("patient_info"), Scan("blood_tests"), "pid", "pid", how="left"),
                   Cmp(">", Col("bp"), Lit(115))),
            [("pid", Col("pid")), ("age", Col("age")), ("bp", Col("bp"))],
        )
        out, _ = FilterPushdown().apply(plan, catalog)
        got = to_dataframe(out, spark, tables).toPandas()
        expected = to_dataframe(plan, spark, tables).toPandas()
        assert len(expected) > 0
        pd.testing.assert_frame_equal(_canon(got), _canon(expected), check_dtype=False)


class TestPruneColumns:
    def test_scan_projection_inserted(self, catalog):
        plan = Project(Scan("patient_info"), [("age", Col("age"))])
        out, changed = PruneColumns().apply(plan, catalog)
        assert changed
        inner = out.child
        assert isinstance(inner, Project)
        assert inner.output_names == ["age"]

    def test_join_elimination_when_right_unused(self, catalog):
        plan = Project(_join3(), [("age", Col("age")), ("bp", Col("bp"))])
        out, changed = PruneColumns().apply(plan, catalog)
        assert changed
        joins = [n for n in walk(out) if isinstance(n, Join)]
        assert len(joins) == 1  # prenatal_tests join dropped
        scans = {n.table for n in walk(out) if isinstance(n, Scan)}
        assert scans == {"patient_info", "blood_tests"}

    def test_join_kept_when_column_used(self, catalog):
        plan = Project(_join3(), [("age", Col("age")), ("trimester", Col("trimester"))])
        out, _ = PruneColumns().apply(plan, catalog)
        scans = {n.table for n in walk(out) if isinstance(n, Scan)}
        assert "prenatal_tests" in scans

    def test_join_kept_when_right_side_filtered(self, catalog):
        """A 1:1 join drops the left rows whose match a filter on the
        right removed, so it stays even when no right column is read."""
        right = Filter(Scan("blood_tests"), Cmp(">", Col("bp"), Lit(120)))
        j = Join(Scan("patient_info"), right, "pid", "pid", fk_one_to_one=True)
        out, _ = PruneColumns().apply(Project(j, [("age", Col("age"))]), catalog)
        assert any(isinstance(n, Join) for n in walk(out))

    def test_join_not_eliminated_without_fk(self, catalog):
        j = Join(Scan("patient_info"), Scan("blood_tests"), "pid", "pid", fk_one_to_one=False)
        plan = Project(j, [("age", Col("age"))])
        out, _ = PruneColumns().apply(plan, catalog)
        assert any(isinstance(n, Join) for n in walk(out))

    def test_filter_columns_stay_required(self, catalog):
        plan = Project(
            Filter(_join3(), Cmp(">", Col("trimester"), Lit(1))),
            [("age", Col("age"))],
        )
        out, _ = PruneColumns().apply(plan, catalog)
        # prenatal_tests provides the filter column: join must survive
        scans = {n.table for n in walk(out) if isinstance(n, Scan)}
        assert "prenatal_tests" in scans

    def test_predict_inputs_stay_required(self, catalog):
        pipe = Pipeline(TableFeaturizer(numeric_cols=["bp"], scale=False), DecisionTree())
        rng = np.random.default_rng(0)
        df = pd.DataFrame({"bp": rng.normal(120, 10, 50)})
        pipe.fit(df, (df["bp"] > 120).astype(int).to_numpy())
        plan = Project(
            MLPredict(_join3(), "m", pipe, "pred"),
            [("pred", Col("pred")), ("pid", Col("pid"))],
        )
        out, _ = PruneColumns().apply(plan, catalog)
        scans = {n.table for n in walk(out) if isinstance(n, Scan)}
        assert "blood_tests" in scans  # provides bp
        assert "prenatal_tests" not in scans  # unused -> join dropped

    def test_udf_blocks_pruning(self, catalog):
        plan = Project(
            UDFNode(_join3(), fn=lambda p: p, description="blackbox"),
            [("age", Col("age"))],
        )
        out, _ = PruneColumns().apply(plan, catalog)
        scans = {n.table for n in walk(out) if isinstance(n, Scan)}
        assert scans == {"patient_info", "blood_tests", "prenatal_tests"}

    def test_second_apply_reports_no_change(self, catalog):
        pipe = Pipeline(TableFeaturizer(numeric_cols=["bp"], scale=False), DecisionTree())
        rng = np.random.default_rng(0)
        df = pd.DataFrame({"bp": rng.normal(120, 10, 50)})
        pipe.fit(df, (df["bp"] > 120).astype(int).to_numpy())
        plans = [
            Project(Scan("patient_info"), [("age", Col("age"))]),
            Project(_join3(), [("age", Col("age")), ("bp", Col("bp"))]),
            Project(
                Filter(Scan("patient_info"), Cmp("=", Col("pregnant"), Lit(1))),
                [("pid", Col("pid"))],
            ),
            Project(
                MLPredict(_join3(), "m", pipe, "pred"),
                [("pred", Col("pred")), ("pid", Col("pid"))],
            ),
        ]
        for plan in plans:
            out, _ = PruneColumns().apply(plan, catalog)
            again, changed = PruneColumns().apply(out, catalog)
            assert not changed, pretty(out)
            assert pretty(again) == pretty(out)
            assert again is out

    def test_converges_with_filter_pushdown(self, catalog):
        """Pruning under a pushed filter must not re-open the push."""
        plan = Project(
            Filter(_join3(), Cmp("=", Col("pregnant"), Lit(1))),
            [("pid", Col("pid")), ("age", Col("age")), ("bp", Col("bp"))],
        )
        report = CrossOptimizer([FilterPushdown(), PruneColumns()]).optimize(plan, catalog)
        assert report.iterations < 5
        assert not _stacked_projects(report.plan)

    def test_oracle_after_join_elimination(self, spark, catalog):
        t = hospital.tables(400, seed=5)
        tables = {k: spark.createDataFrame(v) for k, v in t.items()}
        plan = Project(_join3(), [("pid", Col("pid")), ("age", Col("age"))])
        out, _ = PruneColumns().apply(plan, catalog)
        df = to_dataframe(out, spark, tables)
        assert_equivalent(
            df,
            "SELECT p.pid AS pid, p.age AS age "
            "FROM patient_info p JOIN blood_tests b ON p.pid = b.pid "
            "JOIN prenatal_tests pr ON p.pid = pr.pid",
            patient_info=t["patient_info"],
            blood_tests=t["blood_tests"],
            prenatal_tests=t["prenatal_tests"],
        )


class TestGatherConstraints:
    def test_through_join_and_filters(self):
        plan = Join(
            Filter(Scan("patient_info"), Cmp("=", Col("pregnant"), Lit(1))),
            Filter(Scan("blood_tests"), Cmp(">", Col("bp"), Lit(120))),
            "pid",
            "pid",
        )
        cons = gather_constraints(plan)
        assert cons["pregnant"].eq == 1
        assert cons["bp"].implies_gt(120)

    def test_merge_tightens_interval(self):
        plan = Filter(
            Filter(Scan("t"), Cmp(">", Col("x"), Lit(0))),
            Cmp(">", Col("x"), Lit(10)),
        )
        assert gather_constraints(plan)["x"].implies_gt(10)

    def test_equal_bounds_keep_strictness_in_either_order(self):
        """Stacked filters meet as one conjunction does: on equal bounds
        the strict one wins, whichever filter is on top."""
        for strict, closed in ((Cmp(">", Col("x"), Lit(5)), Cmp(">=", Col("x"), Lit(5))),
                               (Cmp("<", Col("x"), Lit(5)), Cmp("<=", Col("x"), Lit(5)))):
            for top, below in ((strict, closed), (closed, strict)):
                c = gather_constraints(Filter(Filter(Scan("t"), below), top))["x"]
                assert c == column_constraints(strict)["x"]

    def test_project_rename_tracks(self):
        plan = Project(
            Filter(Scan("t"), Cmp("=", Col("a"), Lit(1))),
            [("b", Col("a"))],
        )
        cons = gather_constraints(plan)
        assert cons["b"].eq == 1
        assert "a" not in cons

    def test_left_join_padded_side_filter_does_not_prune(self, spark):
        """A filter under a left join's right side does not hold for the
        left rows the join pads with NULLs, so it must not specialise a
        model above the join. Merging both sides' constraints pruned this
        depth-3 tree from 15 to 7 nodes, and most rows then changed."""
        rng = np.random.default_rng(0)
        n = 2000
        left = pd.DataFrame({"id": np.arange(n), "x": rng.normal(size=n)})
        right = pd.DataFrame({"id": np.arange(n), "y": rng.normal(size=n)})
        train = left.merge(right, on="id")
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=["x", "y"], scale=False),
            DecisionTree(task="regression", max_depth=3, min_samples_leaf=20),
        ).fit(train[["x", "y"]], (train["x"] + 2 * train["y"]).to_numpy())
        catalog = Catalog().add_table("l", ["id", "x"], {"id"}).add_table("r", ["id", "y"], {"id"})
        join = Join(Scan("l"), Filter(Scan("r"), Cmp("<=", Col("y"), Lit(-0.5))),
                    "id", "id", how="left")
        plan = MLPredict(join, "m", pipe, "pred")
        assert "y" not in gather_constraints(join)
        out = CrossOptimizer(default_rules()).optimize(plan, catalog).plan
        tables = {"l": spark.createDataFrame(left), "r": spark.createDataFrame(right)}
        got = to_dataframe(out, spark, tables).toPandas()
        expected = to_dataframe(plan, spark, tables).toPandas()
        assert len(expected) == n
        pd.testing.assert_frame_equal(_canon(got), _canon(expected), check_dtype=False)

    def test_udf_clears_constraints(self):
        plan = UDFNode(
            Filter(Scan("t"), Cmp("=", Col("a"), Lit(1))), fn=lambda p: p
        )
        assert gather_constraints(plan) == {}


class TestJoinOneToOne:
    """Both analyzers decide ``fk_one_to_one`` by one rule: the key is
    unique in a base table on each side. ``k`` is unique in ``b`` only,
    and ``a`` holds a ``k`` that ``b`` lacks, so dropping the join would
    keep a row the join removes."""

    @pytest.fixture(scope="class")
    def ab(self):
        catalog = Catalog().add_table("a", ["k", "x"]).add_table("b", ["k", "y"], {"k"})
        a = pd.DataFrame({"k": [1, 2, 3, 3], "x": [10, 20, 30, 31]})
        b = pd.DataFrame({"k": [1, 2], "y": [0.1, 0.2]})
        return catalog, a, b

    def test_analyzers_agree(self, ab):
        from repro.analyzer import analyze_script, parse_inference_query

        catalog = ab[0]
        sql = parse_inference_query("SELECT x FROM a JOIN b ON k = k", catalog, {})
        script = analyze_script('df = a.merge(b, on="k")\n', catalog, {}).plans[0]
        joins = [n for p in (sql, script) for n in walk(p) if isinstance(n, Join)]
        assert [j.fk_one_to_one for j in joins] == [False, False]

    def test_optimized_sql_keeps_the_rows(self, spark, ab):
        from repro.analyzer import parse_inference_query

        catalog, a, b = ab
        plan = parse_inference_query("SELECT x FROM a JOIN b ON k = k", catalog, {})
        out = CrossOptimizer(default_rules()).optimize(plan, catalog).plan
        tables = {"a": spark.createDataFrame(a), "b": spark.createDataFrame(b)}
        got = to_dataframe(out, spark, tables).toPandas()
        expected = to_dataframe(plan, spark, tables).toPandas()
        assert sorted(expected["x"]) == [10, 20]
        pd.testing.assert_frame_equal(_canon(got), _canon(expected), check_dtype=False)
