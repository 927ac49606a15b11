"""Unit tests for featurizers and the Pipeline wrapper."""
import signal

import numpy as np
import pandas as pd
import pytest

from repro.miniml import (
    DecisionTree,
    LogisticRegressionL1,
    OneHotEncoder,
    Pipeline,
    StandardScaler,
    TableFeaturizer,
)


def _df(n=200, seed=0):
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "age": rng.integers(18, 90, n),
            "bp": rng.normal(120, 15, n),
            "city": rng.choice(["NYC", "SEA", "SFO"], n),
            "carrier": rng.choice(["AA", "DL"], n),
        }
    )


class TestOneHot:
    def test_fit_sorts_categories(self):
        enc = OneHotEncoder().fit(["b", "a", "c", "a"])
        assert enc.categories_ == ["a", "b", "c"]

    def test_codes(self):
        enc = OneHotEncoder().fit(["a", "b", "c"])
        np.testing.assert_array_equal(enc.codes(["c", "a", "z"]), [2, 0, -1])


class TestScaler:
    def test_standardizes(self):
        X = np.random.default_rng(0).normal(5, 3, (1000, 2))
        sc = StandardScaler().fit(X)
        Z = sc.transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0, atol=1e-9)
        np.testing.assert_allclose(Z.std(axis=0), 1, atol=1e-9)

    def test_constant_column_no_divzero(self):
        X = np.ones((10, 1))
        Z = StandardScaler().fit(X).transform(X)
        assert np.isfinite(Z).all()


class TestTableFeaturizer:
    def test_feature_names_order(self):
        f = TableFeaturizer(numeric_cols=["age", "bp"], categorical_cols=["city"])
        f.fit(_df())
        assert f.feature_names[:2] == ["age", "bp"]
        assert f.feature_names[2:] == ["city=NYC", "city=SEA", "city=SFO"]

    def test_transform_shape(self):
        f = TableFeaturizer(
            numeric_cols=["age"], categorical_cols=["city", "carrier"]
        ).fit(_df())
        X = f.transform(_df(50, seed=1))
        assert X.shape == (50, 1 + 3 + 2)
        assert X.shape[1] == f.n_features

    def test_no_scaling_option(self):
        df = _df()
        f = TableFeaturizer(numeric_cols=["age"], scale=False).fit(df)
        np.testing.assert_array_equal(f.transform(df)[:, 0], df["age"].to_numpy())

    def test_onehot_block_exactly_one_hot(self):
        df = _df()
        f = TableFeaturizer(categorical_cols=["city"]).fit(df)
        X = f.transform(df)
        np.testing.assert_allclose(X.sum(axis=1), 1.0)

    def test_onehot_transform_matrix(self):
        f = TableFeaturizer(categorical_cols=["c"]).fit(pd.DataFrame({"c": ["a", "b"]}))
        out = f.transform(pd.DataFrame({"c": ["b", "a", "b"]}))
        np.testing.assert_array_equal(out, [[0, 1], [1, 0], [0, 1]])

    def test_unseen_or_null_category_all_zero(self):
        f = TableFeaturizer(numeric_cols=["x"], categorical_cols=["c", "d"], scale=False)
        f.fit(pd.DataFrame({"x": [1.0, 2.0], "c": ["a", "b"], "d": ["u", "v"]}))
        out = f.transform(pd.DataFrame({"x": [3.0, 4.0], "c": ["z", None], "d": ["v", "u"]}))
        np.testing.assert_array_equal(out, [[3, 0, 0, 0, 1], [4, 0, 0, 1, 0]])

    def test_dense_over_a_row_subset_of_the_codes(self):
        """``dense`` of any rows of the ``transform_codes`` feeds (as
        clustered scoring takes them) is those rows of ``transform``,
        including unseen and NULL categories; ``blocks`` names the feeds
        in matrix order."""
        train, score = _df(), _df(60, seed=2)
        score.loc[::5, "city"] = "LAX"
        score.loc[1::7, "carrier"] = None
        f = TableFeaturizer(numeric_cols=["age", "bp"], categorical_cols=["city", "carrier"])
        f.fit(train)
        feeds = f.transform_codes(score)
        assert f.blocks == [("num", 2), ("cat_city", 3), ("cat_carrier", 2)]
        assert [name for name, _ in f.blocks] == list(feeds)
        rows = np.arange(0, 60, 3)
        sub = {name: v[rows] for name, v in feeds.items()}
        np.testing.assert_array_equal(f.dense(sub, len(rows)), f.transform(score)[rows])

    def test_input_cols(self):
        f = TableFeaturizer(numeric_cols=["age"], categorical_cols=["city"])
        assert f.input_cols == ["age", "city"]

    def test_transform_codes(self):
        df = _df(30)
        f = TableFeaturizer(numeric_cols=["age"], categorical_cols=["city"]).fit(df)
        parts = f.transform_codes(df)
        assert set(parts) == {"num", "cat_city"}
        assert parts["num"].shape == (30, 1)
        assert parts["cat_city"].dtype == np.int64

    def test_drop_numeric_feature(self):
        df = _df()
        f = TableFeaturizer(numeric_cols=["age", "bp"], categorical_cols=["city"]).fit(df)
        new, keep = f.drop_features({"bp"})
        assert new.numeric_cols == ["age"]
        assert "bp" not in new.input_cols
        np.testing.assert_array_equal(
            new.transform(df), f.transform(df)[:, keep]
        )

    def test_drop_whole_categorical_block_drops_column(self):
        df = _df()
        f = TableFeaturizer(numeric_cols=["age"], categorical_cols=["city"]).fit(df)
        new, keep = f.drop_features({"city=NYC", "city=SEA", "city=SFO"})
        assert new.categorical_cols == []
        assert new.input_cols == ["age"]
        assert len(keep) == 1

    def test_drop_partial_categorical_block(self):
        df = _df()
        f = TableFeaturizer(categorical_cols=["city"]).fit(df)
        new, keep = f.drop_features({"city=SEA"})
        assert new.encoders["city"].categories_ == ["NYC", "SFO"]
        np.testing.assert_array_equal(new.transform(df), f.transform(df)[:, keep])

    @pytest.mark.parametrize(
        "values, below, above",
        [
            # Raw threshold 0 with mean 0.3: (x - 0.3) / s is flat over
            # every |x| < ulp(0.3) / 2, subnormals included.
            ([-1.0] * 35 + [1.0] * 65, -1.0, 1.0),
            # Raw threshold ~1e-6 with mean ~7.
            ([0.0] * 15 + [2e-6] * 15 + [10.0] * 70, 0.0, 2e-6),
        ],
        ids=["zero-threshold", "small-threshold"],
    )
    def test_raw_split_where_scaled_value_is_flat(self, values, below, above):
        f = TableFeaturizer(numeric_cols=["v"]).fit(pd.DataFrame({"v": values}))
        z = f.transform(pd.DataFrame({"v": [below, above]}))[:, 0]
        t = float((z[0] + z[1]) / 2)

        def timeout(signum, frame):
            raise TimeoutError("raw_split did not return within 5 s")

        old = signal.signal(signal.SIGALRM, timeout)
        signal.alarm(5)
        try:
            col, x = f.raw_split(0, t)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old)
        assert col == "v" and below <= x < above
        zx, znext = f.transform(pd.DataFrame({"v": [x, np.nextafter(x, np.inf)]}))[:, 0]
        assert zx <= t < znext


class TestPipeline:
    def test_fit_predict_tree(self):
        df = _df(400)
        y = ((df["age"] > 50) & (df["city"] == "NYC")).astype(int).to_numpy()
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=["age", "bp"], categorical_cols=["city"]),
            DecisionTree(max_depth=4, min_samples_leaf=2),
        ).fit(df, y)
        assert np.mean(pipe.predict(df) == y) > 0.95

    def test_fit_predict_logistic(self):
        df = _df(400)
        y = (df["age"] > 50).astype(int).to_numpy()
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=["age"], categorical_cols=["carrier"]),
            LogisticRegressionL1(alpha=0.0),
        ).fit(df, y)
        assert np.mean(pipe.predict(df) == y) > 0.95

    def test_predict_row_matches_batch(self):
        df = _df(100)
        y = (df["age"] > 50).astype(int).to_numpy()
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=["age", "bp"], categorical_cols=["city"]),
            DecisionTree(max_depth=4, min_samples_leaf=2),
        ).fit(df, y)
        batch = pipe.predict(df)
        rows = [pipe.predict_row(r._asdict()) for r in df.itertuples(index=False)]
        np.testing.assert_array_equal(batch, rows)

    def test_input_cols_exposed(self):
        pipe = Pipeline(
            TableFeaturizer(numeric_cols=["age"], categorical_cols=["city"]),
            DecisionTree(),
        )
        assert pipe.input_cols == ["age", "city"]
