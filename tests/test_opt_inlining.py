"""Model inlining: generated SQL CASE/arithmetic expressions must equal
the python model's predictions — verified through DuckDB (oracle) where
it has the SQL functions, and row for row on Spark — and codegen runs
exactly the trees, forests and linear models in that form."""
import numpy as np
import pandas as pd
import pytest

from repro.datasets import flights, hospital
from repro.ir import MLPredict, Scan
from repro.ir.ops import pipeline_output
from repro.miniml import (
    DecisionTree,
    LinearRegression,
    LogisticRegressionL1,
    MLPClassifier,
    Pipeline,
    RandomForest,
    TableFeaturizer,
)
from repro.miniml.forest import with_members
from repro.optimizer import inlining
from repro.optimizer.inlining import (
    MAX_CASE_NODES,
    case_nodes,
    inline_pipeline_sql,
    linear_to_sql,
    predict_sql,
    tree_to_sql,
)
from repro.oracle import assert_equivalent
from repro.runtime.codegen import map_in_pandas, to_dataframe


def _duck_eval(sql_expr: str, pdf: pd.DataFrame) -> np.ndarray:
    import duckdb

    con = duckdb.connect()
    con.register("t", pdf)
    out = con.execute(f"SELECT {sql_expr} AS v FROM t").fetchdf()["v"].to_numpy()
    con.close()
    return out


def _spark_eval(spark, sql_expr: str, pdf: pd.DataFrame) -> np.ndarray:
    """``sql_expr`` over ``pdf`` on Spark, in row order."""
    sdf = spark.createDataFrame(pdf.assign(_row=np.arange(len(pdf))))
    out = sdf.selectExpr("_row", f"{sql_expr} AS v").orderBy("_row").toPandas()
    return out["v"].to_numpy(dtype=np.float64)


def _map_in_pandas_count(df) -> int:
    """``MapInPandas`` operators in the physical plan of ``df``."""
    return df._jdf.queryExecution().executedPlan().toString().count("MapInPandas")


@pytest.fixture(scope="module")
def hosp():
    return hospital.joined_frame(3000, seed=7)


class TestTreeToSql:
    def test_regression_tree_matches_duckdb(self, hosp):
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=hospital.FEATURES, scale=False),
            DecisionTree(task="regression", max_depth=5, min_samples_leaf=10),
        ).fit(hosp[hospital.FEATURES], hosp["los"].to_numpy())
        sql = tree_to_sql(pipe.model, pipe.featurizer, kind="label")
        got = _duck_eval(sql, hosp)
        np.testing.assert_allclose(got, pipe.predict(hosp))

    def test_classification_tree_label(self, hosp):
        y = (hosp["los"] > 7).astype(int).to_numpy()
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=hospital.FEATURES, scale=False),
            DecisionTree(max_depth=4, min_samples_leaf=10),
        ).fit(hosp[hospital.FEATURES], y)
        sql = tree_to_sql(pipe.model, pipe.featurizer, kind="label")
        np.testing.assert_allclose(_duck_eval(sql, hosp), pipe.predict(hosp))

    def test_classification_tree_proba(self, hosp):
        y = (hosp["los"] > 7).astype(int).to_numpy()
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=hospital.FEATURES, scale=False),
            DecisionTree(max_depth=4, min_samples_leaf=10),
        ).fit(hosp[hospital.FEATURES], y)
        sql = tree_to_sql(pipe.model, pipe.featurizer, kind="proba")
        np.testing.assert_allclose(
            _duck_eval(sql, hosp), pipe.predict_proba(hosp)[:, 1]
        )

    def test_scaled_features_inverted_through_scaler(self, hosp):
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=hospital.FEATURES, scale=True),
            DecisionTree(task="regression", max_depth=4, min_samples_leaf=10),
        ).fit(hosp[hospital.FEATURES], hosp["los"].to_numpy())
        sql = tree_to_sql(pipe.model, pipe.featurizer, kind="label")
        np.testing.assert_allclose(_duck_eval(sql, hosp), pipe.predict(hosp))

    def test_scaled_thresholds_map_exactly(self):
        """A split ``z <= t`` over a standardized feature reads its raw
        column as ``x <= x*``, ``x*`` the largest double whose scaled
        value is at most ``t``. ``t·scale + mean`` is off by an ulp for
        some splits, and sends rows on that boundary the other way; the
        inlined tree (in DuckDB) must route as miniml does."""
        train = flights.frame(20_000, seed=0)
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=flights.NUMERIC),
            DecisionTree(max_depth=8),
        ).fit(train[flights.NUMERIC], train["delayed"].to_numpy())
        data = flights.frame(250_000, seed=7)
        for kind in ("label", "proba"):
            sql = tree_to_sql(pipe.model, pipe.featurizer, kind=kind)
            np.testing.assert_array_equal(_duck_eval(sql, data),
                                          pipeline_output(pipe, data, kind))

    def test_onehot_split_sql(self):
        """A split on one-hot feature (col, cat) at 0 <= t < 1 sends a
        row left when ``col IS DISTINCT FROM cat``, so a NULL or unseen
        category goes left with its all-zero one-hot row; t >= 1 always
        goes left and t < 0 always right."""
        rng = np.random.default_rng(5)
        df = pd.DataFrame({"city": rng.choice(["NYC", "SEA", "SFO"], 400)})
        pipe = Pipeline(
            TableFeaturizer(categorical_cols=["city"]), DecisionTree(max_depth=1),
        ).fit(df, (df["city"] == "SEA").astype(int).to_numpy())
        sql = tree_to_sql(pipe.model, pipe.featurizer, kind="proba")
        assert sql.startswith("CASE WHEN city IS DISTINCT FROM 'SEA' THEN ")
        score = pd.DataFrame({"city": ["NYC", "SEA", "SFO", None, "LAX"]})
        np.testing.assert_array_equal(_duck_eval(sql, score),
                                      pipeline_output(pipe, score, "proba"))
        for t, cond in [(1.0, "TRUE"), (-0.5, "FALSE")]:
            pipe.model.threshold[0] = t
            sql = tree_to_sql(pipe.model, pipe.featurizer, kind="proba")
            assert sql.startswith(f"CASE WHEN {cond} THEN ")
            np.testing.assert_array_equal(_duck_eval(sql, score),
                                          pipeline_output(pipe, score, "proba"))

    def test_forest_matches_duckdb(self, hosp, spark):
        """A forest's SQL has no map lookups, so DuckDB runs it: the mean
        of its members' CASE expressions, in every output it has, equal
        to the pipeline's and to Spark's."""
        y = (hosp["los"] > 7).astype(int).to_numpy()
        cls = Pipeline(
            TableFeaturizer(numeric_cols=hospital.FEATURES),
            RandomForest(n_trees=5, max_depth=4, max_features=0.6, seed=2),
        ).fit(hosp, y)
        reg = Pipeline(
            TableFeaturizer(numeric_cols=hospital.FEATURES),
            RandomForest(n_trees=4, task="regression", max_depth=4, seed=2),
        ).fit(hosp, hosp["los"].to_numpy())
        sdf = spark.createDataFrame(hosp)
        for pipe, kind in [(cls, "proba"), (cls, "label"), (reg, "label")]:
            sql = inline_pipeline_sql(pipe, kind)
            np.testing.assert_array_equal(_duck_eval(sql, hosp),
                                          pipeline_output(pipe, hosp, kind))
            assert_equivalent(sdf.selectExpr("pid", f"{sql} AS p"),
                              f"SELECT pid, {sql} AS p FROM t", t=hosp)

    def test_forest_past_size_cap_has_no_sql_form(self, hosp):
        """``predict_sql`` gives no SQL form to a forest of more than
        ``MAX_CASE_NODES`` CASE nodes, which runs faster in Python."""
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=hospital.FEATURES),
            RandomForest(n_trees=2, max_depth=6, min_samples_leaf=5, seed=0),
        ).fit(hosp, (hosp["los"] > 7).astype(int).to_numpy())
        node = MLPredict(Scan("t"), "m", pipe, "p", kind="proba")
        assert predict_sql(node) is not None
        per_copy = predict_sql(node).count("CASE WHEN")
        forest = pipe.model
        copies = MAX_CASE_NODES // per_copy + 1
        big = with_members(forest, forest.trees * copies)
        big.n_trees = len(big.trees)
        node = MLPredict(Scan("t"), "m", Pipeline(pipe.featurizer, big), "p", kind="proba")
        assert inline_pipeline_sql(node.pipeline, "proba").count("CASE WHEN") > MAX_CASE_NODES
        assert predict_sql(node) is None

    def test_case_nodes_match_rendered_sql(self, hosp):
        """``case_nodes`` counts, off the model, the CASE nodes that
        ``tree_to_sql`` renders, for every model and output kind."""
        y = (hosp["los"] > 7).astype(int).to_numpy()
        fl = flights.frame(2000, seed=0)
        models = [
            (Pipeline(TableFeaturizer(numeric_cols=hospital.FEATURES, scale=False),
                      DecisionTree(task="regression", max_depth=6, min_samples_leaf=20)
                      ).fit(hosp, hosp["los"].to_numpy()), ["label"]),
            (Pipeline(TableFeaturizer(numeric_cols=hospital.FEATURES),
                      DecisionTree(max_depth=5)).fit(hosp, y), ["label", "proba"]),
            (Pipeline(TableFeaturizer(numeric_cols=hospital.FEATURES),
                      RandomForest(n_trees=3, task="regression", max_depth=4, seed=0)
                      ).fit(hosp, hosp["los"].to_numpy()), ["label"]),
            (Pipeline(TableFeaturizer(numeric_cols=hospital.FEATURES),
                      RandomForest(n_trees=5, max_depth=5, seed=0)).fit(hosp, y),
             ["label", "proba"]),
            (Pipeline(TableFeaturizer(numeric_cols=flights.NUMERIC,
                                      categorical_cols=flights.CATEGORICAL),
                      RandomForest(n_trees=3, max_depth=6, min_samples_leaf=20,
                                   max_features=0.5, seed=0)
                      ).fit(fl, fl["delayed"].to_numpy()), ["label", "proba"]),
        ]
        for pipe, kinds in models:
            for kind in kinds:
                sql = inline_pipeline_sql(pipe, kind)
                assert case_nodes(pipe.model, kind) == sql.count("CASE WHEN"), (pipe.model, kind)

    def test_predict_past_cap_is_not_rendered(self, hosp, monkeypatch):
        """``predict_sql`` decides the size cap from the model: a forest
        past ``MAX_CASE_NODES`` gets no SQL form without being
        translated."""
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=hospital.FEATURES),
            RandomForest(n_trees=2, max_depth=6, min_samples_leaf=5, seed=0),
        ).fit(hosp, (hosp["los"] > 7).astype(int).to_numpy())
        forest = pipe.model
        copies = MAX_CASE_NODES // case_nodes(forest, "proba") + 1
        big = with_members(forest, forest.trees * copies)
        big.n_trees = len(big.trees)

        def fail(*args, **kwargs):
            raise AssertionError("tree_to_sql called past the cap")

        monkeypatch.setattr(inlining, "tree_to_sql", fail)
        for kind in ("label", "proba"):
            node = MLPredict(Scan("t"), "m", Pipeline(pipe.featurizer, big), "p", kind=kind)
            assert predict_sql(node) is None

    def test_forest_kinds_without_sql(self, hosp):
        """A regressor has no ``proba``, a multi-class forest no SQL
        ``label``; ``proba`` of any classifier reads class 1's mean."""
        multi = Pipeline(
            TableFeaturizer(numeric_cols=hospital.FEATURES),
            RandomForest(n_trees=3, max_depth=3, seed=0),
        ).fit(hosp, np.minimum(hosp["los"].to_numpy() // 4, 2).astype(int))
        assert len(multi.model.classes_) == 3
        with pytest.raises(ValueError):
            inline_pipeline_sql(multi, "label")
        np.testing.assert_array_equal(_duck_eval(inline_pipeline_sql(multi, "proba"), hosp),
                                      pipeline_output(multi, hosp, "proba"))
        reg = Pipeline(
            TableFeaturizer(numeric_cols=hospital.FEATURES),
            RandomForest(n_trees=2, task="regression", max_depth=3, seed=0),
        ).fit(hosp, hosp["los"].to_numpy())
        with pytest.raises(ValueError):
            inline_pipeline_sql(reg, "proba")


class TestLinearToSql:
    def test_logistic_score_and_proba(self, hosp, spark):
        """One-hot blocks are map lookups, which DuckDB lacks: Spark."""
        y = (hosp["los"] > 7).astype(int).to_numpy()
        df = hosp.assign(ward=np.random.default_rng(0).choice(["a", "b", "c"], len(hosp)))
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=["age", "bp"], categorical_cols=["ward"]),
            LogisticRegressionL1(alpha=0.001, max_iter=200),
        ).fit(df, y)
        sql_s = linear_to_sql(pipe.model, pipe.featurizer, kind="score")
        assert "CASE" not in sql_s and sql_s.count("element_at") == 1
        np.testing.assert_allclose(
            _spark_eval(spark, sql_s, df), pipe.decision_function(df), atol=1e-9
        )
        sql_p = linear_to_sql(pipe.model, pipe.featurizer, kind="proba")
        np.testing.assert_allclose(
            _spark_eval(spark, sql_p, df), pipe.predict_proba(df)[:, 1], atol=1e-9
        )

    def test_numeric_logistic_matches_duckdb(self, hosp):
        y = (hosp["los"] > 7).astype(int).to_numpy()
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=["age", "bp"]),
            LogisticRegressionL1(alpha=0.001, max_iter=200),
        ).fit(hosp, y)
        for kind, ref in [("score", pipe.decision_function(hosp)),
                          ("proba", pipe.predict_proba(hosp)[:, 1]),
                          ("label", pipe.predict(hosp))]:
            sql = linear_to_sql(pipe.model, pipe.featurizer, kind=kind)
            np.testing.assert_allclose(_duck_eval(sql, hosp), ref, atol=1e-9)

    def test_linear_regression(self, hosp):
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=["age", "bp"], scale=False),
            LinearRegression(),
        ).fit(hosp, hosp["los"].to_numpy())
        sql = inline_pipeline_sql(pipe, "label")
        np.testing.assert_allclose(_duck_eval(sql, hosp), pipe.predict(hosp), atol=1e-9)

    def test_zero_weights_skipped_in_sql(self):
        rng = np.random.default_rng(0)
        df = pd.DataFrame({"a": rng.random(500), "b": rng.random(500)})
        y = (df["a"] > 0.5).astype(int).to_numpy()
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=["a", "b"]), LogisticRegressionL1(alpha=0.08)
        ).fit(df, y)
        if pipe.model.coef_[1] == 0.0:
            sql = linear_to_sql(pipe.model, pipe.featurizer)
            assert " b" not in sql


class TestInliningRuleOnSpark:
    def test_inlined_plan_matches_mapinpandas(self, spark):
        """Codegen runs a tree as SQL; its rows equal the same node
        scored through ``map_in_pandas`` and the pipeline itself."""
        df = hospital.joined_frame(1500, seed=9)
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=hospital.FEATURES, scale=False),
            DecisionTree(task="regression", max_depth=4, min_samples_leaf=10),
        ).fit(df[hospital.FEATURES], df["los"].to_numpy())
        plan = MLPredict(Scan("joined"), "los", pipe, "pred")
        sdf = spark.createDataFrame(df)
        inlined = to_dataframe(plan, spark, {"joined": sdf})
        assert _map_in_pandas_count(inlined) == 0

        def rows(out):
            return (out.select("pid", "pred").toPandas()
                    .sort_values("pid").reset_index(drop=True))

        a = rows(map_in_pandas(plan, sdf))
        b = rows(inlined)
        pd.testing.assert_frame_equal(a, b)
        ref = df[["pid"]].assign(pred=pipeline_output(pipe, df, "label"))
        pd.testing.assert_frame_equal(
            b, ref.sort_values("pid").reset_index(drop=True), check_dtype=False
        )

    def test_uninlinable_model_left_alone(self, spark):
        """An MLP runs in one ``mapInPandas``; a forest or a tree in none."""
        rng = np.random.default_rng(0)
        df = pd.DataFrame({"a": rng.random(300), "b": rng.random(300)})
        y = (df["a"] > 0.5).astype(int).to_numpy()
        tables = {"t": spark.createDataFrame(df)}
        for model, n in [
            (MLPClassifier(hidden=(4,), epochs=2), 1),
            (RandomForest(n_trees=3, max_depth=3, seed=0), 0),
            (DecisionTree(max_depth=3), 0),
        ]:
            pipe = Pipeline(TableFeaturizer(numeric_cols=["a", "b"]), model).fit(df, y)
            out = to_dataframe(MLPredict(Scan("t"), "m", pipe, "p", kind="proba"),
                               spark, tables)
            assert _map_in_pandas_count(out) == n, type(model).__name__
            np.testing.assert_allclose(
                out.toPandas()["p"].to_numpy(), pipeline_output(pipe, df, "proba"),
                atol=1e-12,
            )


class TestNullAndUnseenOnSpark:
    """Every inlined form equals ``pipeline_output`` row for row on data
    with NULL numerics, NULL categories and categories unseen in
    training: a NULL split value goes right, a NULL or unseen category
    goes left at a one-hot split and gathers no weight, a NULL numeric
    makes a linear score NULL. Tree and forest forms are exact."""

    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(3)
        n = 600
        train = pd.DataFrame({
            "age": rng.integers(18, 90, n).astype(float),
            "bp": rng.normal(120, 15, n),
            "ward": rng.choice(["a", "b", "c"], n),
            "floor": rng.integers(1, 4, n),
        })
        y = ((train["age"] > 50) ^ (train["ward"] == "b")).astype(int).to_numpy()
        score = train.copy()
        score.loc[::7, "age"] = np.nan
        score.loc[::5, "bp"] = np.nan
        score["ward"] = score["ward"].astype(object)
        score.loc[::6, "ward"] = None
        score.loc[1::11, "ward"] = "zz"  # unseen in training
        score["floor"] = score["floor"].astype("Int64")
        score.loc[2::9, "floor"] = pd.NA
        score.loc[3::13, "floor"] = 9  # unseen in training
        return train, y, score

    def _check(self, spark, pipe, kind, score, exact=False):
        node = MLPredict(Scan("t"), "m", pipe, "p", kind=kind)
        sdf = spark.createDataFrame(score.assign(_row=np.arange(len(score))))
        out = to_dataframe(node, spark, {"t": sdf})
        assert _map_in_pandas_count(out) == 0
        got = out.orderBy("_row").toPandas()["p"].to_numpy(dtype=np.float64)
        ref = pipeline_output(pipe, score, kind)
        if exact:
            np.testing.assert_array_equal(got, ref)
        else:
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scale", [False, True])
    @pytest.mark.parametrize("kind", ["label", "proba"])
    def test_tree(self, spark, data, scale, kind):
        train, y, score = data
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=["age", "bp"], scale=scale),
            DecisionTree(max_depth=5, min_samples_leaf=5),
        ).fit(train, y)
        self._check(spark, pipe, kind, score)

    @pytest.mark.parametrize("scale", [False, True])
    @pytest.mark.parametrize("kind", ["label", "proba"])
    def test_onehot_split_tree(self, spark, data, scale, kind):
        train, y, score = data
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=["age", "bp"], categorical_cols=["ward", "floor"],
                            scale=scale),
            DecisionTree(max_depth=5, min_samples_leaf=5),
        ).fit(train, y)
        specs = pipe.featurizer.feature_specs
        assert {specs[f][1] for f in pipe.model.feature if f != -1} >= {"age", "ward"}
        self._check(spark, pipe, kind, score, exact=True)

    @pytest.mark.parametrize("scale", [False, True])
    @pytest.mark.parametrize("kind", ["label", "proba"])
    def test_forest(self, spark, data, scale, kind):
        train, y, score = data
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=["age", "bp"], categorical_cols=["ward", "floor"],
                            scale=scale),
            RandomForest(n_trees=6, max_depth=5, min_samples_leaf=5, max_features=0.7, seed=1),
        ).fit(train, y)
        specs = pipe.featurizer.feature_specs
        assert any(specs[f][0] == "cat" for tree in pipe.model.trees
                   for f in tree.feature if f != -1)
        self._check(spark, pipe, kind, score, exact=True)

    @pytest.mark.parametrize("kind", ["label", "proba"])
    def test_forest_member_missing_a_class(self, spark, data, kind):
        """A member whose bootstrap sample holds one class reads 0 for
        the other: an all-zero column of its ``value``."""
        train, _, score = data
        train = train.iloc[:40]
        y = np.zeros(len(train), dtype=int)
        y[[3, 17]] = 1
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=["age", "bp"], categorical_cols=["ward"]),
            RandomForest(n_trees=8, max_depth=3, min_samples_leaf=1, seed=0),
        ).fit(train, y)
        assert any((t.value == 0).all(axis=0).any() for t in pipe.model.trees)
        self._check(spark, pipe, kind, score, exact=True)

    @pytest.mark.parametrize("kind", ["score", "proba", "label"])
    def test_logistic_with_onehot_blocks(self, spark, data, kind):
        train, y, score = data
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=["age", "bp"], categorical_cols=["ward", "floor"]),
            LogisticRegressionL1(alpha=1e-4, max_iter=300),
        ).fit(train, y)
        assert linear_to_sql(pipe.model, pipe.featurizer).count("element_at") == 2
        self._check(spark, pipe, kind, score)

    @pytest.mark.parametrize("kind", ["score", "proba", "label"])
    def test_logistic_nan_numeric(self, spark, data, kind):
        """A NaN (not NULL) score labels 0, as ``NaN > 0`` does in the
        pipeline, although Spark orders NaN above every number. Arrow
        turns pandas NaN into NULL, so the NaNs are made in Spark."""
        from pyspark.sql import functions as F

        train, y, score = data
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=["age", "bp"], categorical_cols=["ward"]),
            LogisticRegressionL1(alpha=1e-4, max_iter=300),
        ).fit(train, y)
        score = score.assign(_row=np.arange(len(score)))
        nan_rows = score["_row"] % 4 == 0
        sdf = spark.createDataFrame(score).withColumn(
            "bp", F.when(F.col("_row") % 4 == 0, F.lit(float("nan"))).otherwise(F.col("bp")))
        out = to_dataframe(MLPredict(Scan("t"), "m", pipe, "p", kind=kind), spark, {"t": sdf})
        got = out.orderBy("_row").toPandas()["p"].to_numpy(dtype=np.float64)
        with_nan = score.assign(bp=score["bp"].mask(nan_rows))
        assert np.isnan(pipeline_output(pipe, with_nan, "score")[nan_rows]).all()
        np.testing.assert_allclose(got, pipeline_output(pipe, with_nan, kind), rtol=0, atol=1e-12)

    def test_linear_regression(self, spark, data):
        train, _, score = data
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=["age"], categorical_cols=["ward"]),
            LinearRegression(),
        ).fit(train, train["bp"].to_numpy())
        self._check(spark, pipe, "label", score)
