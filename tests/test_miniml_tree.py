"""Unit tests for the CART decision tree substrate."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.miniml import DecisionTree


def _xor_data(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 2))
    y = ((X[:, 0] > 0.5) ^ (X[:, 1] > 0.5)).astype(int)
    return X, y


class TestFit:
    def test_perfectly_separable_single_feature(self):
        X = np.array([[0.0], [0.1], [0.2], [0.8], [0.9], [1.0]] * 5)
        y = (X[:, 0] > 0.5).astype(int)
        t = DecisionTree(max_depth=2, min_samples_leaf=1).fit(X, y)
        assert np.array_equal(t.predict(X), y)

    def test_xor_needs_depth_two(self):
        X, y = _xor_data()
        shallow = DecisionTree(max_depth=1, min_samples_leaf=1).fit(X, y)
        deep = DecisionTree(max_depth=3, min_samples_leaf=1).fit(X, y)
        acc_shallow = np.mean(shallow.predict(X) == y)
        acc_deep = np.mean(deep.predict(X) == y)
        assert acc_deep > 0.95
        assert acc_deep > acc_shallow

    def test_regression_piecewise(self):
        rng = np.random.default_rng(1)
        X = rng.random((500, 1))
        y = np.where(X[:, 0] > 0.5, 10.0, -10.0)
        t = DecisionTree(task="regression", max_depth=2, min_samples_leaf=5).fit(X, y)
        pred = t.predict(X)
        assert np.abs(pred - y).max() < 1.0

    def test_max_depth_respected(self):
        X, y = _xor_data(800)
        for d in [1, 2, 3, 4]:
            t = DecisionTree(max_depth=d, min_samples_leaf=1).fit(X, y)
            assert t.depth <= d

    def test_min_samples_leaf(self):
        X, y = _xor_data(100)
        t = DecisionTree(max_depth=10, min_samples_leaf=30).fit(X, y)
        leaves = t.apply(X)
        _, counts = np.unique(leaves, return_counts=True)
        assert counts.min() >= 30

    def test_constant_labels_single_leaf(self):
        X = np.random.default_rng(0).random((50, 3))
        y = np.ones(50, dtype=int)
        t = DecisionTree().fit(X, y)
        assert t.n_nodes == 1
        assert np.array_equal(t.predict(X), y)

    def test_classes_preserved_noncontiguous(self):
        X = np.array([[0.0], [1.0]] * 20)
        y = np.where(X[:, 0] > 0.5, 7, 3)
        t = DecisionTree(min_samples_leaf=1).fit(X, y)
        assert set(t.predict(X)) == {3, 7}
        assert list(t.classes_) == [3, 7]


class TestPredict:
    def test_predict_matches_predict_row(self):
        X, y = _xor_data(300)
        t = DecisionTree(max_depth=5, min_samples_leaf=2).fit(X, y)
        batch = t.predict(X)
        rows = np.array([t.predict_row(x) for x in X])
        assert np.array_equal(batch, rows)

    def test_predict_proba_rows_sum_to_one(self):
        X, y = _xor_data(200)
        t = DecisionTree(max_depth=4, min_samples_leaf=5).fit(X, y)
        p = t.predict_proba(X)
        assert p.shape == (200, 2)
        np.testing.assert_allclose(p.sum(axis=1), 1.0)

    def test_predict_proba_regression_raises(self):
        X = np.random.default_rng(0).random((30, 2))
        t = DecisionTree(task="regression").fit(X, X[:, 0])
        with pytest.raises(ValueError):
            t.predict_proba(X)

    def test_apply_returns_leaves(self):
        X, y = _xor_data(200)
        t = DecisionTree(max_depth=4, min_samples_leaf=5).fit(X, y)
        leaves = t.apply(X)
        assert np.all(t.feature[leaves] == -1)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_batch_equals_rowwise_random(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((60, 4))
        y = (X[:, 0] + X[:, 1] * X[:, 2] > 0).astype(int)
        if len(np.unique(y)) < 2:
            return
        t = DecisionTree(max_depth=4, min_samples_leaf=2).fit(X, y)
        Xq = rng.standard_normal((40, 4))
        assert np.array_equal(
            t.predict(Xq), np.array([t.predict_row(x) for x in Xq])
        )


class TestStructure:
    def test_node_counts_consistent(self):
        X, y = _xor_data(400)
        t = DecisionTree(max_depth=5, min_samples_leaf=5).fit(X, y)
        n_internal = t.n_nodes - t.n_leaves
        # binary tree: leaves = internal + 1
        assert t.n_leaves == n_internal + 1

    def test_values_on_internal_nodes(self):
        X, y = _xor_data(400)
        t = DecisionTree(max_depth=3, min_samples_leaf=5).fit(X, y)
        # every node (incl. internal) must carry a probability vector
        assert t.value.shape == (t.n_nodes, 2)
        np.testing.assert_allclose(t.value.sum(axis=1), 1.0)
