"""Predicate-based model pruning: semantics preservation on the
constrained row domain + structural shrinkage."""
import numpy as np
import pandas as pd
import pytest

from repro.datasets import flights, hospital
from repro.ir import (
    Catalog,
    Cmp,
    Col,
    Constraint,
    Filter,
    Lit,
    MLPredict,
    Scan,
)
from repro.ir.ops import pipeline_output
from repro.miniml import (
    DecisionTree,
    LinearRegression,
    LogisticRegressionL1,
    Pipeline,
    RandomForest,
    TableFeaturizer,
)
from repro.optimizer.pruning import (
    PredicateBasedModelPruning,
    _feature_constraints,
    prune_pipeline,
    prune_tree,
)


@pytest.fixture(scope="module")
def hosp():
    df = hospital.joined_frame(4000, seed=1)
    return df


@pytest.fixture(scope="module")
def los_tree(hosp):
    pipe = Pipeline(
        TableFeaturizer(numeric_cols=hospital.FEATURES, scale=False),
        DecisionTree(task="regression", max_depth=6, min_samples_leaf=20),
    )
    return pipe.fit(hosp[hospital.FEATURES], hosp["los"].to_numpy())


class TestPruneTree:
    def test_pruned_tree_is_smaller(self, los_tree):
        tree = los_tree.model
        fidx = hospital.FEATURES.index("pregnant")
        pruned = prune_tree(tree, {fidx: Constraint(eq=1)})
        assert pruned.n_nodes < tree.n_nodes

    def test_pruned_tree_agrees_on_constrained_rows(self, los_tree, hosp):
        tree = los_tree.model
        fidx = hospital.FEATURES.index("pregnant")
        pruned = prune_tree(tree, {fidx: Constraint(eq=1)})
        X = hosp[hosp["pregnant"] == 1][hospital.FEATURES].to_numpy(dtype=float)
        np.testing.assert_array_equal(pruned.predict(X), tree.predict(X))

    def test_interval_constraint_pruning(self):
        rng = np.random.default_rng(0)
        X = rng.random((2000, 2)) * 100
        y = (X[:, 0] > 50).astype(int)
        t = DecisionTree(max_depth=5, min_samples_leaf=5).fit(X, y)
        pruned = prune_tree(t, {0: Constraint(lo=60.0)})
        assert pruned.n_nodes < t.n_nodes
        mask = X[:, 0] >= 60
        np.testing.assert_array_equal(pruned.predict(X[mask]), t.predict(X[mask]))

    def test_no_constraints_no_change(self, los_tree):
        tree = los_tree.model
        pruned = prune_tree(tree, {})
        assert pruned.n_nodes == tree.n_nodes

    def test_unrelated_constraint_no_change(self, los_tree):
        tree = los_tree.model
        pruned = prune_tree(tree, {hospital.FEATURES.index("pregnant"): Constraint(lo=-1e9)})
        assert pruned.n_nodes == tree.n_nodes

    def test_root_collapse(self):
        X = np.array([[0.0], [1.0]] * 50)
        y = (X[:, 0] > 0.5).astype(int)
        t = DecisionTree(max_depth=1, min_samples_leaf=1).fit(X, y)
        pruned = prune_tree(t, {0: Constraint(eq=1.0)})
        assert pruned.n_nodes == 1
        assert pruned.predict(np.array([[1.0]]))[0] == 1


class TestScaledConstraints:
    def test_constraints_transported_through_scaler(self):
        rng = np.random.default_rng(1)
        df = pd.DataFrame({"age": rng.normal(50, 20, 3000)})
        y = (df["age"] > 60).astype(int).to_numpy()
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=["age"], scale=True),
            DecisionTree(max_depth=3, min_samples_leaf=10),
        ).fit(df, y)
        fc = _feature_constraints(pipe, {"age": Constraint(lo=70.0)})
        # z-space bound: (70 - mean)/std
        m = pipe.featurizer.scaler.mean_[0]
        s = pipe.featurizer.scaler.scale_[0]
        assert fc[0].lo == pytest.approx((70.0 - m) / s)
        new_pipe, changed = prune_pipeline(pipe, {"age": Constraint(lo=70.0)})
        assert changed
        old = pipe.predict(df[df.age >= 70])
        new = new_pipe.predict(df[df.age >= 70])
        np.testing.assert_array_equal(old, new)


class TestForestPruning:
    def test_forest_members_pruned_and_agree(self, hosp):
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=hospital.FEATURES, scale=False),
            RandomForest(n_trees=5, task="regression", max_depth=5, seed=2),
        ).fit(hosp[hospital.FEATURES], hosp["los"].to_numpy())
        new_pipe, changed = prune_pipeline(pipe, {"pregnant": Constraint(eq=1)})
        assert changed
        sub = hosp[hosp["pregnant"] == 1]
        np.testing.assert_allclose(new_pipe.predict(sub), pipe.predict(sub))
        old_nodes = sum(t.n_nodes for t in pipe.model.trees)
        new_nodes = sum(t.n_nodes for t in new_pipe.model.trees)
        assert new_nodes < old_nodes


class TestCategoricalFolding:
    @pytest.fixture(scope="class")
    def lr_pipe(self):
        df = flights.frame(6000, seed=0)
        y = df["delayed"].to_numpy()
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=flights.NUMERIC, categorical_cols=flights.CATEGORICAL),
            LogisticRegressionL1(alpha=0.001, max_iter=300),
        ).fit(df, y)
        return pipe, df

    def test_equality_folds_onehot_block(self, lr_pipe):
        pipe, df = lr_pipe
        n_before = pipe.featurizer.n_features
        new_pipe, changed = prune_pipeline(pipe, {"dest": Constraint(eq="A05")})
        assert changed
        assert new_pipe.featurizer.n_features == n_before - flights.N_AIRPORTS
        assert "dest" not in new_pipe.input_cols

    def test_folded_model_agrees_on_matching_rows(self, lr_pipe):
        pipe, df = lr_pipe
        new_pipe, _ = prune_pipeline(pipe, {"dest": Constraint(eq="A05")})
        sub = df[df["dest"] == "A05"]
        np.testing.assert_allclose(
            new_pipe.decision_function(sub), pipe.decision_function(sub), atol=1e-10
        )

    def test_non_equality_constraint_ignored(self, lr_pipe):
        pipe, _ = lr_pipe
        _, changed = prune_pipeline(pipe, {"dest": Constraint(lo=0.0)})
        assert not changed

    def test_multiple_categorical_folds(self, lr_pipe):
        pipe, df = lr_pipe
        new_pipe, changed = prune_pipeline(
            pipe, {"dest": Constraint(eq="A01"), "carrier": Constraint(eq="NK")}
        )
        assert changed
        sub = df[(df["dest"] == "A01") & (df["carrier"] == "NK")]
        np.testing.assert_allclose(
            new_pipe.decision_function(sub), pipe.decision_function(sub), atol=1e-10
        )
        assert set(new_pipe.featurizer.categorical_cols) == {"origin"}

    def test_linear_regression_folds_like_logistic(self):
        """Both linear models fold a one-hot block under an equality
        filter: a ``LinearRegression`` drops the bound block's features
        and keeps its output on the rows the filter passes."""
        df = flights.frame(6000, seed=0)
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=flights.NUMERIC, categorical_cols=flights.CATEGORICAL),
            LinearRegression(),
        ).fit(df, df["dep_delay"].to_numpy() * 0.3 + df["delayed"].to_numpy())
        catalog = Catalog().add_table("flights", list(df.columns), {"flight_id"})
        plan = MLPredict(Filter(Scan("flights"), Cmp("=", Col("dest"), Lit("A00"))),
                         "m", pipe, "pred")
        out, changed = PredicateBasedModelPruning().apply(plan, catalog)
        assert changed
        folded = out.pipeline
        assert folded.featurizer.n_features == pipe.featurizer.n_features - flights.N_AIRPORTS
        assert "dest" not in folded.input_cols
        sub = df[df["dest"] == "A00"]
        assert len(sub)
        np.testing.assert_allclose(pipeline_output(folded, sub, "label"),
                                   pipeline_output(pipe, sub, "label"), rtol=0, atol=1e-10)


class TestRuleOnPlan:
    def test_rule_fires_from_filter(self, los_tree, hosp):
        catalog = Catalog().add_table("joined", hospital.FEATURES + ["pid"], {"pid"})
        plan = MLPredict(
            Filter(Scan("joined"), Cmp("=", Col("pregnant"), Lit(1))),
            "los", los_tree, "pred",
        )
        out, changed = PredicateBasedModelPruning().apply(plan, catalog)
        assert changed
        assert out.pipeline.model.n_nodes < los_tree.model.n_nodes

    def test_rule_fixpoint(self, los_tree):
        catalog = Catalog().add_table("joined", hospital.FEATURES + ["pid"], {"pid"})
        plan = MLPredict(
            Filter(Scan("joined"), Cmp("=", Col("pregnant"), Lit(1))),
            "los", los_tree, "pred",
        )
        out, changed = PredicateBasedModelPruning().apply(plan, catalog)
        out2, changed2 = PredicateBasedModelPruning().apply(out, catalog)
        assert not changed2
        assert out2 is out

    def test_no_filter_no_change(self, los_tree):
        catalog = Catalog().add_table("joined", hospital.FEATURES + ["pid"], {"pid"})
        plan = MLPredict(Scan("joined"), "los", los_tree, "pred")
        _, changed = PredicateBasedModelPruning().apply(plan, catalog)
        assert not changed
