"""NN-translation correctness: compiled graphs must reproduce the
source miniml model's predictions exactly (same float ops, same data)."""
import numpy as np
import pandas as pd
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ir import MLPredict, Scan
from repro.ir.ops import pipeline_output
from repro.miniml import (
    DecisionTree,
    LogisticRegressionL1,
    MLPClassifier,
    Pipeline,
    RandomForest,
    TableFeaturizer,
)
from repro.onnxlite import optimize
from repro.onnxlite.convert import (
    forest_to_graph,
    linear_to_graph,
    mlp_to_graph,
    pipeline_to_graph,
)
from repro.optimizer.nn_translate import translate_predict


def _data(n=300, d=5, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = (X[:, 0] + X[:, 1] * X[:, 2] > 0).astype(int)
    return X, y


class TestTreeToGEMM:
    """Single trees compiled to graphs (a forest of one tree)."""

    def test_matches_tree_predict_value(self):
        X, y = _data()
        t = DecisionTree(max_depth=5, min_samples_leaf=2).fit(X, y)
        g = forest_to_graph(t)
        out = g.run({"X": X})["value"]
        np.testing.assert_allclose(out, t.predict_value(X))

    def test_regression_tree(self):
        rng = np.random.default_rng(1)
        X = rng.random((200, 3))
        yr = 5 * X[:, 0] + np.where(X[:, 1] > 0.5, 3.0, -3.0)
        t = DecisionTree(task="regression", max_depth=4, min_samples_leaf=4).fit(X, yr)
        g = forest_to_graph(t)
        np.testing.assert_allclose(g.run({"X": X})["value"][:, 0], t.predict(X))

    def test_single_leaf_tree(self):
        X = np.random.default_rng(0).random((20, 3))
        y = np.ones(20, dtype=int)
        t = DecisionTree().fit(X, y)
        g = forest_to_graph(t)
        out = g.run({"X": X})["value"]
        assert out.shape == (20, 1)
        np.testing.assert_allclose(out, 1.0)

    def test_exactly_one_leaf_selected_per_row(self):
        X, y = _data(100)
        t = DecisionTree(max_depth=6, min_samples_leaf=1).fit(X, y)
        g = forest_to_graph(t)
        # run the unoptimized graph and grab the final node index per row
        env = dict(g.initializers)
        env["X"] = X
        from repro.onnxlite.ops import KERNELS

        for node in g.toposorted():
            env[node.output] = KERNELS[node.op_type](
                [env[i] for i in node.inputs], node.attrs
            )
        leaf_ids = env["leaf_ids"]
        assert leaf_ids.shape == (1, len(X))
        assert np.all(t.feature[leaf_ids[0]] == -1)
        np.testing.assert_array_equal(leaf_ids[0], t.apply(X))
        np.testing.assert_allclose(optimize(g).run({"X": X})["value"], t.predict_value(X))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 6))
    def test_random_trees_match(self, seed, depth):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((120, 4))
        y = (np.sin(X[:, 0]) + X[:, 1] > 0).astype(int)
        if len(np.unique(y)) < 2:
            return
        t = DecisionTree(max_depth=depth, min_samples_leaf=2).fit(X, y)
        g = forest_to_graph(t)
        Xq = rng.standard_normal((80, 4))
        np.testing.assert_allclose(g.run({"X": Xq})["value"], t.predict_value(Xq))


class TestForestToGraph:
    def test_matches_forest_proba(self):
        X, y = _data(400)
        rf = RandomForest(n_trees=7, max_depth=4, max_features=0.6, seed=3).fit(X, y)
        g = forest_to_graph(rf)
        np.testing.assert_allclose(g.run({"X": X})["value"], rf.predict_proba(X))

    def test_regression_forest(self):
        rng = np.random.default_rng(2)
        X = rng.random((300, 4))
        yr = X[:, 0] * 10 + X[:, 1]
        rf = RandomForest(n_trees=4, task="regression", max_depth=4).fit(X, yr)
        g = forest_to_graph(rf)
        np.testing.assert_allclose(g.run({"X": X})["value"][:, 0], rf.predict(X))

    def test_optimized_graph_matches(self):
        X, y = _data(200)
        rf = RandomForest(n_trees=3, max_depth=3, seed=1).fit(X, y)
        g = optimize(forest_to_graph(rf))
        np.testing.assert_allclose(g.run({"X": X})["value"], rf.predict_proba(X))

    def test_nan_feature_goes_right_at_that_node(self):
        X, y = _data(400)
        rf = RandomForest(n_trees=7, max_depth=5, max_features=0.6, seed=3).fit(X, y)
        Xq = _data(300, seed=9)[0]
        Xq[::3, 1] = np.nan
        g = optimize(forest_to_graph(rf))
        np.testing.assert_allclose(g.run({"X": Xq})["value"], rf.predict_proba(Xq))

    def test_bootstrap_missed_a_class(self):
        # class 2 is one row of 400: a bootstrap misses it with p ≈ 0.37
        X, y = _data(400)
        y[10] = 2
        rf = RandomForest(n_trees=8, max_depth=4, seed=0).fit(X, y)
        assert any((t.value == 0).all(axis=0).any() for t in rf.trees)
        g = optimize(forest_to_graph(rf))
        out = g.run({"X": X})["value"]
        assert out.shape == (len(X), 3)
        np.testing.assert_array_equal(out, rf.predict_proba(X))

    def test_single_leaf_tree_in_forest(self):
        X, y = _data(300)
        rf = RandomForest(n_trees=3, max_depth=4, seed=5).fit(X, y)
        tree = rf.trees[1]
        stump = tree.rebuild(lambda i: tree.left[i])
        assert stump.n_nodes == 1
        rf.trees[1] = stump
        g = optimize(forest_to_graph(rf))
        np.testing.assert_array_equal(g.run({"X": X})["value"], rf.predict_proba(X))

    def test_traversal_graph_survives_save_load(self, tmp_path):
        from repro.onnxlite import InferenceSession, save_graph

        X, y = _data(300)
        rf = RandomForest(n_trees=5, max_depth=5, max_features=0.6, seed=4).fit(X, y)
        sess = InferenceSession(save_graph(optimize(forest_to_graph(rf)), str(tmp_path / "rf")))
        assert "GatherElements" in {n.op_type for n in sess.graph.nodes}
        np.testing.assert_array_equal(sess.run({"X": X})["value"], rf.predict_proba(X))


class TestLinearToGraph:
    def test_logistic_score_and_proba(self):
        X, y = _data(300)
        m = LogisticRegressionL1(alpha=0.01).fit(X, y)
        out = linear_to_graph(m).run({"X": X})
        np.testing.assert_allclose(out["score"], m.decision_function(X))
        np.testing.assert_allclose(out["proba"], m.predict_proba(X)[:, 1])

    def test_linear_regression_score(self):
        from repro.miniml import LinearRegression

        rng = np.random.default_rng(0)
        X = rng.standard_normal((100, 3))
        m = LinearRegression().fit(X, X @ np.array([1.0, 2.0, 3.0]))
        out = linear_to_graph(m).run({"X": X})
        np.testing.assert_allclose(out["score"], m.predict(X))
        assert "proba" not in out


class TestMLPToGraph:
    def test_matches_mlp(self):
        X, y = _data(300)
        m = MLPClassifier(hidden=(16, 8), epochs=5, seed=0).fit(X, y)
        out = mlp_to_graph(m).run({"X": X})
        np.testing.assert_allclose(out["score"], m.decision_function(X))
        np.testing.assert_allclose(out["proba"], m.predict_proba(X)[:, 1])


def _mixed_df(n=400, seed=0):
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "age": rng.integers(18, 90, n).astype(float),
            "bp": rng.normal(120, 15, n),
            "dest": rng.choice(["JFK", "SEA", "SFO", "LAX"], n),
            "carrier": rng.choice(["AA", "DL", "UA"], n),
        }
    )


class TestPipelineToGraph:
    def _pipe(self, model, seed=0):
        df = _mixed_df(seed=seed)
        y = ((df["age"] > 50) & (df["dest"] == "JFK")).astype(int).to_numpy()
        # guarantee both classes
        y[:5] = 1
        y[5:10] = 0
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=["age", "bp"], categorical_cols=["dest", "carrier"]),
            model,
        ).fit(df, y)
        return pipe, df

    def test_tree_pipeline(self):
        pipe, df = self._pipe(DecisionTree(max_depth=4, min_samples_leaf=2))
        value = pipe.model.predict_value(pipe.featurizer.transform(df))
        feeds = pipe.featurizer.transform_codes(df)
        np.testing.assert_allclose(pipeline_to_graph(pipe, "proba").run(feeds)["proba"],
                                   value[:, 1])
        np.testing.assert_array_equal(pipeline_to_graph(pipe, "label").run(feeds)["label"],
                                      pipe.predict(df))

    def test_forest_pipeline(self):
        pipe, df = self._pipe(RandomForest(n_trees=4, max_depth=3, seed=2))
        g = pipeline_to_graph(pipe, "proba")
        feeds = pipe.featurizer.transform_codes(df)
        np.testing.assert_allclose(g.run(feeds)["proba"], pipe.predict_proba(df)[:, 1])

    def test_logistic_pipeline(self):
        pipe, df = self._pipe(LogisticRegressionL1(alpha=0.001))
        g = pipeline_to_graph(pipe, "score")
        feeds = pipe.featurizer.transform_codes(df)
        np.testing.assert_allclose(g.run(feeds)["score"], pipe.decision_function(df))

    def test_mlp_pipeline(self):
        pipe, df = self._pipe(MLPClassifier(hidden=(8,), epochs=3, seed=1))
        g = pipeline_to_graph(pipe, "score")
        feeds = pipe.featurizer.transform_codes(df)
        np.testing.assert_allclose(g.run(feeds)["score"], pipe.decision_function(df))

    def test_serialized_pipeline_roundtrip(self, tmp_path):
        from repro.onnxlite import InferenceSession, save_graph

        pipe, df = self._pipe(DecisionTree(max_depth=3, min_samples_leaf=2))
        feeds = pipe.featurizer.transform_codes(df)
        for kind, want in [("proba", pipe.model.predict_value(pipe.featurizer.transform(df))[:, 1]),
                           ("label", pipe.predict(df))]:
            p = save_graph(pipeline_to_graph(pipe, kind), str(tmp_path / kind))
            np.testing.assert_allclose(InferenceSession(p).run(feeds)[kind], want)

    def _translated(self, pipe, df):
        """``translate_predict``'s graph and its output for every kind,
        one graph per kind, on ``df`` with unseen and NULL categories,
        next to ``pipeline_output``'s."""
        q = df.copy()
        q.loc[::4, "dest"] = "ORD"  # not a training category: code -1
        q.loc[1::5, "carrier"] = None
        feeds = pipe.featurizer.transform_codes(q)
        assert (feeds["cat_dest"] == -1).sum() == len(q[::4])
        assert (feeds["cat_carrier"] == -1).sum() == len(q[1::5])
        graphs = []
        for kind in ("label", "proba", "score"):
            nn = translate_predict(MLPredict(Scan("t"), "m", pipe, "p", kind=kind))
            np.testing.assert_allclose(nn.predict_pandas(q), pipeline_output(pipe, q, kind),
                                       rtol=0, atol=1e-12)
            graphs.append(nn.graph)
        return graphs

    def test_embedding_bag_logistic_pipeline(self):
        pipe, df = self._pipe(LogisticRegressionL1(alpha=0.001))
        for g in self._translated(pipe, df):
            assert {"OneHot", "Concat"}.isdisjoint(n.op_type for n in g.nodes)
            assert [n.op_type for n in g.nodes].count("Gather") == 2

    def test_embedding_bag_mlp_gemm_pipeline(self):
        pipe, df = self._pipe(MLPClassifier(hidden=(8, 4), epochs=3, seed=1))
        for g in self._translated(pipe, df):
            assert {"OneHot", "Concat"}.isdisjoint(n.op_type for n in g.nodes)
            assert [n.op_type for n in g.nodes].count("Gemm") == 2

    def test_embedding_bag_flights_lr_graph(self):
        from repro.datasets import flights
        from repro.experiments.common import flights_lr_pipeline

        pipe = flights_lr_pipeline(n_train=2_000)
        nn = translate_predict(MLPredict(Scan("t"), "m", pipe, "p", kind="proba"))
        ops = [n.op_type for n in nn.graph.nodes]
        assert "OneHot" not in ops and "Concat" not in ops
        assert ops.count("Gather") == len(flights.CATEGORICAL)
        q = flights.frame(500, seed=7)
        q.loc[::6, "origin"] = None
        q.loc[1::11, "dest"] = "ZZZ"
        np.testing.assert_allclose(nn.predict_pandas(q), pipeline_output(pipe, q, "proba"),
                                   rtol=0, atol=1e-12)

    def test_emitted_ops_are_the_kernels(self):
        """onnxlite has a kernel for exactly the ops that the converters
        and the graph passes emit: a tree, a forest, a linear model, an
        MLP, scaled + one-hot pipelines of the last three for every kind
        each has, and a numeric-only pipeline."""
        from repro.onnxlite.ops import KERNELS

        X, y = _data()
        graphs = [
            forest_to_graph(DecisionTree(max_depth=3).fit(X, y)),
            forest_to_graph(RandomForest(n_trees=3, max_depth=3).fit(X, y)),
            linear_to_graph(LogisticRegressionL1(alpha=0.01).fit(X, y)),
            mlp_to_graph(MLPClassifier(hidden=(4,), epochs=1).fit(X, y)),
        ]
        for model, kinds in [(RandomForest(n_trees=3, max_depth=3), ("label", "proba")),
                             (LogisticRegressionL1(alpha=0.001), ("label", "proba", "score")),
                             (MLPClassifier(hidden=(4,), epochs=1), ("label", "proba", "score"))]:
            pipe = self._pipe(model)[0]
            graphs.extend(pipeline_to_graph(pipe, kind) for kind in kinds)
        df = _mixed_df()
        numeric = Pipeline(TableFeaturizer(numeric_cols=["age", "bp"]), DecisionTree(max_depth=3))
        graphs.append(pipeline_to_graph(numeric.fit(df, (df["age"] > 50).to_numpy(int)), "proba"))
        emitted = {n.op_type for g in graphs for h in (g, optimize(g)) for n in h.nodes}
        assert emitted == set(KERNELS)

    def test_unsupported_model_raises(self):
        import pytest

        from repro.miniml import KMeans

        pipe = Pipeline(TableFeaturizer(numeric_cols=["age"]), KMeans())
        with pytest.raises(TypeError):
            pipeline_to_graph(pipe, "label")
