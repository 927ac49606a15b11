"""NN translation, the default optimizer's choice of an MLP's graph
form, and model clustering."""
import numpy as np
import pandas as pd
import pytest

from repro.datasets import flights, hospital
from repro.ir import (
    Catalog,
    MLPredict,
    NNPredict,
    Scan,
    walk,
)
from repro.ir.ops import ClusteredPredict, pipeline_output
from repro.miniml import (
    DecisionTree,
    LogisticRegressionL1,
    MLPClassifier,
    Pipeline,
    RandomForest,
    TableFeaturizer,
)
from repro.optimizer import CrossOptimizer, inlining
from repro.optimizer.clustering import compile_clustered, to_clustered_predict
from repro.optimizer.inlining import predict_sql
from repro.optimizer.nn_translate import NNTranslation, translate_predict


@pytest.fixture(scope="module")
def hosp():
    return hospital.joined_frame(3000, seed=11)


@pytest.fixture(scope="module")
def fl():
    return flights.frame(8000, seed=11)


class TestNNTranslation:
    def test_tree_pipeline_translates_and_agrees(self, hosp):
        y = (hosp["los"] > 7).astype(int).to_numpy()
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=hospital.FEATURES, scale=False),
            DecisionTree(max_depth=4, min_samples_leaf=10),
        ).fit(hosp[hospital.FEATURES], y)
        node = MLPredict(Scan("t"), "m", pipe, "pred", kind="label")
        nn = translate_predict(node)
        assert isinstance(nn, NNPredict)
        np.testing.assert_allclose(
            nn.predict_pandas(hosp), node.predict_pandas(hosp)
        )

    def test_forest_proba_agrees(self, hosp):
        y = (hosp["los"] > 7).astype(int).to_numpy()
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=hospital.FEATURES, scale=False),
            RandomForest(n_trees=4, max_depth=3, seed=3),
        ).fit(hosp[hospital.FEATURES], y)
        node = MLPredict(Scan("t"), "m", pipe, "pred", kind="proba")
        nn = translate_predict(node)
        np.testing.assert_allclose(nn.predict_pandas(hosp), node.predict_pandas(hosp))

    def test_mlp_pipeline_with_categoricals(self, fl):
        y = fl["delayed"].to_numpy()
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=flights.NUMERIC, categorical_cols=flights.CATEGORICAL),
            MLPClassifier(hidden=(8,), epochs=2, seed=0),
        ).fit(fl, y)
        node = MLPredict(Scan("t"), "m", pipe, "pred", kind="proba")
        nn = translate_predict(node)
        np.testing.assert_allclose(
            nn.predict_pandas(fl), node.predict_pandas(fl), atol=1e-12
        )

    def test_rule_rewrites_all_predicts(self, hosp):
        y = (hosp["los"] > 7).astype(int).to_numpy()
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=hospital.FEATURES, scale=False),
            MLPClassifier(hidden=(4,), epochs=2, seed=0),
        ).fit(hosp[hospital.FEATURES], y)
        catalog = Catalog().add_table("t", hospital.FEATURES, set())
        plan = MLPredict(Scan("t"), "m", pipe, "pred", kind="proba")
        out, changed = NNTranslation().apply(plan, catalog)
        assert changed
        assert isinstance(out, NNPredict)
        out2, changed2 = NNTranslation().apply(out, catalog)
        assert not changed2

    def test_rule_leaves_sql_forms_alone(self, hosp, fl):
        """A predict with an SQL form (``predict_sql``) stays an
        ``MLPredict``: codegen runs it in Catalyst, not as a graph."""
        y = (hosp["los"] > 7).astype(int).to_numpy()
        tree = Pipeline(
            TableFeaturizer(numeric_cols=hospital.FEATURES, scale=False),
            DecisionTree(max_depth=3, min_samples_leaf=10),
        ).fit(hosp[hospital.FEATURES], y)
        logistic = Pipeline(
            TableFeaturizer(numeric_cols=flights.NUMERIC, categorical_cols=flights.CATEGORICAL),
            LogisticRegressionL1(alpha=1e-4, max_iter=100),
        ).fit(fl, fl["delayed"].to_numpy())
        catalog = Catalog().add_table("t", list(fl.columns) + hospital.FEATURES, set())
        for pipe in (tree, logistic):
            for kind in ("label", "proba"):
                plan = MLPredict(Scan("t"), "m", pipe, "pred", kind=kind)
                assert predict_sql(plan) is not None
                out, changed = NNTranslation().apply(plan, catalog)
                assert out is plan and not changed

    def test_rule_translates_forms_without_sql(self, hosp):
        """An MLP has no SQL form and becomes a graph; forests and trees
        with a one-hot split have one and stay ``MLPredict``s."""
        rng = np.random.default_rng(0)
        df = pd.DataFrame({"a": rng.random(400), "ward": rng.choice(["x", "y", "z"], 400)})
        y = ((df["ward"] == "y") ^ (df["a"] > 0.5)).astype(int).to_numpy()
        feat = TableFeaturizer(numeric_cols=["a"], categorical_cols=["ward"])
        pipes = [
            (Pipeline(feat, RandomForest(n_trees=3, max_depth=3, seed=0)).fit(df, y), True),
            (Pipeline(feat, MLPClassifier(hidden=(4,), epochs=2, seed=0)).fit(df, y), False),
            (Pipeline(TableFeaturizer(categorical_cols=["ward"]),
                      DecisionTree(max_depth=2)).fit(df, y), True),
        ]
        catalog = Catalog().add_table("t", ["a", "ward"], set())
        for pipe, has_sql in pipes:
            plan = MLPredict(Scan("t"), "m", pipe, "pred", kind="proba")
            assert (predict_sql(plan) is not None) == has_sql, type(pipe.model).__name__
            out, changed = NNTranslation().apply(plan, catalog)
            if has_sql:
                assert out is plan and not changed
                continue
            assert changed and isinstance(out, NNPredict)
            np.testing.assert_allclose(out.predict_pandas(df), plan.predict_pandas(df),
                                       atol=1e-12)

    def test_rule_translates_exactly_the_mlps_without_rendering_sql(self, hosp, fl,
                                                                     monkeypatch):
        """Alone and as the default optimizer's last rule,
        ``NNTranslation`` turns an MLP's predict into a graph and leaves
        trees, forests (a three-class forest label too, which has no SQL
        form) and linear models as ``MLPredict``s. It decides by model
        type: no SQL is rendered."""
        y = (hosp["los"] > 7).astype(int).to_numpy()
        y3 = np.digitize(hosp["los"], [5, 9])

        def fit(model, target=y):
            feat = TableFeaturizer(numeric_cols=hospital.FEATURES, scale=False)
            return Pipeline(feat, model).fit(hosp[hospital.FEATURES], target)

        predicts = [
            (fit(DecisionTree(max_depth=3, min_samples_leaf=10)), "label", False),
            (fit(RandomForest(n_trees=3, max_depth=3, seed=0)), "proba", False),
            (fit(RandomForest(n_trees=3, max_depth=3, seed=0), y3), "label", False),
            (Pipeline(TableFeaturizer(numeric_cols=flights.NUMERIC,
                                      categorical_cols=flights.CATEGORICAL),
                      LogisticRegressionL1(alpha=1e-4, max_iter=50))
             .fit(fl, fl["delayed"].to_numpy()), "proba", False),
            (fit(MLPClassifier(hidden=(4,), epochs=2, seed=0)), "proba", True),
        ]

        def rendered(*args, **kwargs):
            raise AssertionError("the optimizer rendered a predict's SQL")

        monkeypatch.setattr(inlining, "tree_to_sql", rendered)
        monkeypatch.setattr(inlining, "linear_to_sql", rendered)
        catalog = Catalog().add_table("t", list(fl.columns) + list(hosp.columns), set())
        for pipe, kind, graph in predicts:
            plan = MLPredict(Scan("t"), "m", pipe, "pred", kind=kind)
            out, changed = NNTranslation().apply(plan, catalog)
            assert changed == graph and isinstance(out, NNPredict) == graph
            optimized = CrossOptimizer().optimize(plan, catalog).plan
            (node,) = [n for n in walk(optimized) if isinstance(n, (MLPredict, NNPredict))]
            assert isinstance(node, NNPredict) == graph, type(pipe.model).__name__

    def test_kmeans_model_not_translatable(self):
        from repro.miniml import KMeans

        pipe = Pipeline(TableFeaturizer(numeric_cols=["a"]), KMeans())
        catalog = Catalog().add_table("t", ["a"], set())
        plan = MLPredict(Scan("t"), "m", pipe, "p")
        _, changed = NNTranslation().apply(plan, catalog)
        assert not changed


class TestDefaultOptimizerOnSpark:
    """``Raven.run`` under the default optimizer: the flights LR and the
    forest run as SQL, with no Python wave, and the MLP as its graph in
    one wave. Each equals ``pipeline_output`` row for row on data with
    NULL numerics, NULL categories and unseen categories."""

    @pytest.fixture(scope="class")
    def raven(self, spark):
        from repro.experiments.common import flights_lr_pipeline
        from repro.raven import Raven

        score = flights.frame(3000, seed=5)
        score.loc[::7, "distance"] = np.nan
        score.loc[::5, "dep_hour"] = np.nan
        score.loc[::6, "origin"] = None
        score.loc[1::11, "dest"] = "ZZZ"  # unseen in training
        score.loc[2::13, "carrier"] = None
        train = flights.frame(2000, seed=0)
        y = train["delayed"].to_numpy()

        def fit(model):
            feat = TableFeaturizer(numeric_cols=flights.NUMERIC,
                                   categorical_cols=flights.CATEGORICAL)
            return Pipeline(feat, model).fit(train, y)

        r = Raven(spark=spark,
                  catalog=Catalog().add_table("flights", list(score.columns), {"flight_id"}),
                  tables={"flights": spark.createDataFrame(score)})
        pipes = {
            "delay_lr": flights_lr_pipeline(n_train=5_000, alpha=1e-5, seed=0),
            "delay_rf": fit(RandomForest(n_trees=4, max_depth=4, min_samples_leaf=20, seed=0)),
            "delay_mlp": fit(MLPClassifier(hidden=(8, 4), epochs=2, seed=0)),
        }
        for name, pipe in pipes.items():
            r.register_model(name, pipe, kind="proba")
        nulls = r.tables["flights"].where("distance IS NULL AND origin IS NULL").count()
        assert nulls == len(score[::42])
        return r, pipes, score

    def _check(self, r, model, pipe, kind, score, form, waves):
        """``model`` optimizes to a ``form`` predict, runs in ``waves``
        Python waves and equals ``pipeline_output``, NaN for NaN."""
        sql = f"SELECT flight_id, PREDICT(MODEL {model}) AS p FROM flights"
        plan = r.optimize(r.analyze_sql(sql)).plan
        assert [type(n) for n in walk(plan) if isinstance(n, (MLPredict, NNPredict))] == [form]
        df = r.run(sql)
        physical = df._jdf.queryExecution().executedPlan().toString()
        assert physical.count("MapInPandas") == waves
        got = df.toPandas().sort_values("flight_id")
        ref = pipeline_output(pipe, score, kind)
        assert np.array_equal(got["flight_id"], score["flight_id"])
        np.testing.assert_allclose(got["p"].to_numpy(dtype=np.float64), ref,
                                   rtol=0, atol=1e-12, equal_nan=True)
        return ref

    @pytest.mark.parametrize("model, form, waves", [
        ("delay_lr", MLPredict, 0), ("delay_rf", MLPredict, 0), ("delay_mlp", NNPredict, 1)])
    def test_form_and_rows(self, raven, model, form, waves):
        r, pipes, score = raven
        self._check(r, model, pipes[model], "proba", score, form, waves)

    @pytest.mark.parametrize("kind", ["label", "score"])
    def test_mlp_label_and_score(self, raven, kind):
        """A NULL numeric makes the MLP's score NaN and its label 0, as
        ``NaN > 0`` is false; a NULL or unseen category gathers no
        weight."""
        r, pipes, score = raven
        r.register_model(f"delay_mlp_{kind}", pipes["delay_mlp"], kind=kind)
        ref = self._check(r, f"delay_mlp_{kind}", pipes["delay_mlp"], kind, score, NNPredict, 1)
        assert np.isnan(ref).any() == (kind == "score")


class TestModelClustering:
    @pytest.fixture(scope="class")
    def lr_pipe(self, fl):
        y = fl["delayed"].to_numpy()
        return Pipeline(
            TableFeaturizer(numeric_cols=flights.NUMERIC, categorical_cols=flights.CATEGORICAL),
            LogisticRegressionL1(alpha=0.0005, max_iter=200),
        ).fit(fl, y)

    def test_clustered_predictions_match_original(self, lr_pipe, fl):
        cm = compile_clustered(lr_pipe, fl.head(3000), k=4, cluster_col="dest", seed=0)
        np.testing.assert_allclose(
            cm.predict(fl, "proba"), lr_pipe.predict_proba(fl)[:, 1], atol=1e-10
        )

    def test_cluster_models_have_fewer_features(self, lr_pipe, fl):
        cm = compile_clustered(lr_pipe, fl.head(3000), k=8, cluster_col="dest", seed=0)
        assert cm.avg_features() < lr_pipe.featurizer.n_features

    def test_more_clusters_fewer_avg_features(self, lr_pipe, fl):
        sizes = [
            compile_clustered(lr_pipe, fl.head(3000), k=k, cluster_col="dest").avg_features()
            for k in [2, 8]
        ]
        assert sizes[1] < sizes[0]

    def test_every_category_routed(self, lr_pipe, fl):
        cm = compile_clustered(lr_pipe, fl.head(3000), k=4, cluster_col="dest")
        assert set(cm.category_to_cluster) == set(flights.AIRPORTS)

    def test_timings_recorded(self, lr_pipe, fl):
        cm = compile_clustered(lr_pipe, fl.head(2000), k=2, cluster_col="dest")
        assert cm.cluster_seconds > 0
        assert cm.compile_seconds > 0

    def test_bad_cluster_col_raises(self, lr_pipe, fl):
        with pytest.raises(KeyError):
            compile_clustered(lr_pipe, fl, k=2, cluster_col="distance")

    def test_ir_node_agrees(self, lr_pipe, fl):
        cm = compile_clustered(lr_pipe, fl.head(3000), k=4, cluster_col="dest")
        node = MLPredict(Scan("t"), "m", lr_pipe, "p", kind="proba")
        cnode = to_clustered_predict(node, cm)
        assert isinstance(cnode, ClusteredPredict)
        np.testing.assert_allclose(
            cnode.predict_pandas(fl), lr_pipe.predict_proba(fl)[:, 1], atol=1e-10
        )

    @pytest.mark.parametrize("kind", ["label", "proba", "score"])
    def test_unseen_or_null_cluster_value(self, lr_pipe, fl, kind):
        """Rows whose cluster column is unseen or NULL route to no
        cluster; they score with the full model, as ``pipeline_output``
        does."""
        cm = compile_clustered(lr_pipe, fl.head(3000), k=4, cluster_col="dest", seed=0)
        data = fl.head(400).copy()
        data.loc[::3, "dest"] = "ZZZ"
        data.loc[1::5, "dest"] = None
        data.loc[2::7, "origin"] = None
        unrouted = data["dest"].isna() | (data["dest"] == "ZZZ")
        assert np.array_equal(cm.router(data) == -1, unrouted.to_numpy())
        node = MLPredict(Scan("t"), "m", lr_pipe, "p", kind=kind)
        got = to_clustered_predict(node, cm).predict_pandas(data)
        np.testing.assert_allclose(got, pipeline_output(lr_pipe, data, kind), rtol=0, atol=1e-12)

    def test_unknown_kind_raises_like_mlpredict(self, lr_pipe, fl):
        cm = compile_clustered(lr_pipe, fl.head(3000), k=2, cluster_col="dest")
        node = MLPredict(Scan("t"), "m", lr_pipe, "p", kind="bogus")
        with pytest.raises(ValueError):
            node.predict_pandas(fl.head(50))
        with pytest.raises(ValueError):
            to_clustered_predict(node, cm).predict_pandas(fl.head(50))
