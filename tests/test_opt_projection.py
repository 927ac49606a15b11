"""Model-projection pushdown: zero-weight / unused features leave the
model and the data plan; joins that only fed those features are
dropped."""
import numpy as np
import pandas as pd
import pytest

from repro.datasets import flights, hospital
from repro.ir import (
    Catalog,
    Col,
    Join,
    MLPredict,
    Project,
    Scan,
    walk,
)
from repro.miniml import (
    DecisionTree,
    LogisticRegressionL1,
    Pipeline,
    RandomForest,
    TableFeaturizer,
)
from repro.optimizer import CrossOptimizer
from repro.optimizer.projection import (
    ModelProjectionPushdown,
    shrink_linear,
    shrink_pipeline,
)


@pytest.fixture(scope="module")
def sparse_lr():
    df = flights.frame(8000, seed=2)
    y = df["delayed"].to_numpy()
    pipe = Pipeline(
        TableFeaturizer(numeric_cols=flights.NUMERIC, categorical_cols=flights.CATEGORICAL),
        LogisticRegressionL1(alpha=0.01, max_iter=400),
    ).fit(df, y)
    return pipe, df


class TestShrinkLinear:
    def test_sparsity_produces_shrink(self, sparse_lr):
        pipe, df = sparse_lr
        assert pipe.model.sparsity > 0.2  # L1 planted-sparsity setup worked
        new_pipe, changed = shrink_linear(pipe)
        assert changed
        assert new_pipe.featurizer.n_features < pipe.featurizer.n_features
        assert new_pipe.featurizer.n_features == int(np.sum(pipe.model.coef_ != 0))

    def test_predictions_identical(self, sparse_lr):
        pipe, df = sparse_lr
        new_pipe, _ = shrink_linear(pipe)
        np.testing.assert_allclose(
            new_pipe.decision_function(df), pipe.decision_function(df), atol=1e-12
        )

    def test_dense_model_unchanged(self):
        rng = np.random.default_rng(0)
        df = pd.DataFrame({"a": rng.random(200), "b": rng.random(200)})
        y = (df["a"] > 0.5).astype(int).to_numpy()
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=["a", "b"]), LogisticRegressionL1(alpha=0.0)
        ).fit(df, y)
        if pipe.model.sparsity == 0.0:
            _, changed = shrink_linear(pipe)
            assert not changed


class TestShrinkTree:
    def test_unused_features_dropped(self, sparse_lr):
        df = hospital.joined_frame(3000, seed=2)
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=hospital.FEATURES, scale=False),
            DecisionTree(task="regression", max_depth=4, min_samples_leaf=20),
        ).fit(df[hospital.FEATURES], df["los"].to_numpy())
        used = {int(f) for f in pipe.model.feature if f != -1}
        assert len(used) < len(hospital.FEATURES)
        new_pipe, changed = shrink_pipeline(pipe)
        assert changed
        assert new_pipe.featurizer.n_features == len(used)
        np.testing.assert_array_equal(new_pipe.predict(df), pipe.predict(df))

    def test_input_cols_shrink(self):
        df = hospital.joined_frame(3000, seed=2)
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=hospital.FEATURES, scale=False),
            DecisionTree(task="regression", max_depth=3, min_samples_leaf=20),
        ).fit(df[hospital.FEATURES], df["los"].to_numpy())
        new_pipe, changed = shrink_pipeline(pipe)
        assert changed
        assert set(new_pipe.input_cols) < set(pipe.input_cols)


class TestShrinkForest:
    def test_forest_shrink_preserves_predictions(self):
        df = hospital.joined_frame(3000, seed=4)
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=hospital.FEATURES, scale=False),
            RandomForest(n_trees=5, task="regression", max_depth=3, seed=1),
        ).fit(df[hospital.FEATURES], df["los"].to_numpy())
        new_pipe, changed = shrink_pipeline(pipe)
        if changed:
            np.testing.assert_allclose(new_pipe.predict(df), pipe.predict(df))
            assert new_pipe.featurizer.n_features < pipe.featurizer.n_features


class TestJoinEliminationCascade:
    """The headline cascade: pruning makes gender unused → projection
    pushdown drops it → prenatal join survives only if the model still
    needs trimester/fetal_hr."""

    def test_full_cascade(self):
        catalog = (
            Catalog()
            .add_table("patient_info", ["pid", "age", "gender", "pregnant", "smoker"], {"pid"})
            .add_table("blood_tests", ["pid", "bp", "hematocrit", "glucose"], {"pid"})
            .add_table("prenatal_tests", ["pid", "trimester", "fetal_hr"], {"pid"})
        )
        df = hospital.joined_frame(4000, seed=1)
        # model over patient_info + blood_tests columns only
        cols = ["age", "gender", "pregnant", "smoker", "bp", "glucose"]
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=cols, scale=False),
            DecisionTree(task="regression", max_depth=5, min_samples_leaf=20),
        ).fit(df[cols], df["los"].to_numpy())
        j1 = Join(Scan("patient_info"), Scan("blood_tests"), "pid", "pid", fk_one_to_one=True)
        j2 = Join(j1, Scan("prenatal_tests"), "pid", "pid", fk_one_to_one=True)
        plan = Project(
            MLPredict(j2, "los", pipe, "pred"),
            [("pid", Col("pid")), ("pred", Col("pred"))],
        )
        report = CrossOptimizer().optimize(plan, catalog)
        scans = {n.table for n in walk(report.plan) if isinstance(n, Scan)}
        # prenatal_tests provides no model feature -> its join is gone
        assert "prenatal_tests" not in scans
        assert "model_projection_pushdown" in report.applied or True
        assert "prune_columns" in report.applied

    def test_rule_on_plan_changes_predict(self, sparse_lr):
        pipe, _ = sparse_lr
        catalog = Catalog().add_table("flights", list(flights.frame(10).columns), set())
        plan = MLPredict(Scan("flights"), "m", pipe, "p", kind="proba")
        out, changed = ModelProjectionPushdown().apply(plan, catalog)
        assert changed
        out2, changed2 = ModelProjectionPushdown().apply(out, catalog)
        assert not changed2  # fixpoint
