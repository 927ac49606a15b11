"""Unit tests for forest, linear models, MLP, k-means, metrics."""
import numpy as np
import pytest

from repro.miniml import (
    KMeans,
    LinearRegression,
    LogisticRegressionL1,
    MLPClassifier,
    RandomForest,
)
from repro.miniml.linear import sigmoid
from repro.miniml.metrics import accuracy, auc
from repro.miniml.tree import LEAF


def _blobs(n=600, seed=0):
    rng = np.random.default_rng(seed)
    X0 = rng.standard_normal((n // 2, 4)) + np.array([2, 2, 0, 0])
    X1 = rng.standard_normal((n // 2, 4)) + np.array([-2, -2, 0, 0])
    X = np.vstack([X0, X1])
    y = np.r_[np.zeros(n // 2, dtype=int), np.ones(n // 2, dtype=int)]
    perm = rng.permutation(n)
    return X[perm], y[perm]


class TestRandomForest:
    def test_accuracy_on_blobs(self):
        X, y = _blobs()
        rf = RandomForest(n_trees=5, max_depth=4, seed=1).fit(X, y)
        assert accuracy(y, rf.predict(X)) > 0.95

    def test_proba_shape_and_sum(self):
        X, y = _blobs(200)
        rf = RandomForest(n_trees=3, max_depth=3).fit(X, y)
        p = rf.predict_proba(X)
        assert p.shape == (200, 2)
        np.testing.assert_allclose(p.sum(axis=1), 1.0)

    def test_feature_subsampling(self):
        X, y = _blobs(300)
        rf = RandomForest(n_trees=4, max_features=0.5, seed=2).fit(X, y)
        for tree in rf.trees:
            assert len(set(tree.feature[tree.feature != LEAF].tolist())) <= 2

    def test_members_live_in_forest_space(self):
        """Each member of a subsampled forest whose bootstrap missed a
        class reads like a lone tree over the forest's features and
        classes: the forest is the plain mean of its members."""
        X, y = _blobs(300)
        y[10] = 2  # one row: a bootstrap misses it with p ≈ 0.37
        rf = RandomForest(n_trees=8, max_depth=4, max_features=0.5, seed=0).fit(X, y)
        assert any((t.value == 0).all(axis=0).any() for t in rf.trees)
        for tree in rf.trees:
            assert tree.n_features == X.shape[1]
            np.testing.assert_array_equal(tree.classes_, rf.classes_)
            assert tree.value.shape[1] == len(rf.classes_) == 3
        mean = sum(tree.predict_value(X) for tree in rf.trees) / rf.n_trees
        np.testing.assert_array_equal(mean, rf.predict_proba(X))

    def test_deterministic_in_seed(self):
        X, y = _blobs(200)
        a = RandomForest(n_trees=3, seed=5).fit(X, y).predict_proba(X)
        b = RandomForest(n_trees=3, seed=5).fit(X, y).predict_proba(X)
        np.testing.assert_array_equal(a, b)

    def test_regression_forest(self):
        rng = np.random.default_rng(0)
        X = rng.random((400, 2))
        y = 3 * X[:, 0] + np.where(X[:, 1] > 0.5, 5.0, 0.0)
        rf = RandomForest(n_trees=5, task="regression", max_depth=5).fit(X, y)
        assert np.mean((rf.predict(X) - y) ** 2) < 1.0


class TestLinearRegression:
    def test_recovers_exact_coefficients(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((200, 3))
        y = X @ np.array([1.5, -2.0, 0.5]) + 3.0
        lr = LinearRegression().fit(X, y)
        np.testing.assert_allclose(lr.coef_, [1.5, -2.0, 0.5], atol=1e-6)
        assert abs(lr.intercept_ - 3.0) < 1e-6

    def test_predict(self):
        lr = LinearRegression()
        lr.coef_ = np.array([2.0])
        lr.intercept_ = 1.0
        np.testing.assert_allclose(lr.predict([[0.0], [1.0]]), [1.0, 3.0])


class TestLogisticL1:
    def test_separates_blobs(self):
        X, y = _blobs()
        m = LogisticRegressionL1(alpha=0.0).fit(X, y)
        assert accuracy(y, m.predict(X)) > 0.97

    def test_sparsity_increases_with_alpha(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((500, 20))
        # only first 3 features matter
        y = (X[:, 0] + X[:, 1] - X[:, 2] + 0.1 * rng.standard_normal(500) > 0).astype(int)
        sparsities = []
        for a in [0.0, 0.01, 0.05, 0.2]:
            m = LogisticRegressionL1(alpha=a, max_iter=600).fit(X, y)
            sparsities.append(m.sparsity)
        assert sparsities[0] < 0.2
        assert sparsities[-1] > 0.5
        assert sparsities == sorted(sparsities)

    def test_exact_zeros_not_epsilon(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((300, 10))
        y = (X[:, 0] > 0).astype(int)
        m = LogisticRegressionL1(alpha=0.1, max_iter=400).fit(X, y)
        zero = m.coef_ == 0.0
        assert zero.sum() >= 1  # exactly representable zeros

    def test_irrelevant_features_zeroed_first(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((800, 6))
        y = (2 * X[:, 0] + 0.02 * rng.standard_normal(800) > 0).astype(int)
        m = LogisticRegressionL1(alpha=0.03, max_iter=800).fit(X, y)
        assert m.coef_[0] != 0.0
        assert np.mean(m.coef_[1:] == 0.0) >= 0.6

    def test_predict_proba_valid(self):
        X, y = _blobs(200)
        m = LogisticRegressionL1(alpha=0.01).fit(X, y)
        p = m.predict_proba(X)
        assert p.shape == (200, 2)
        np.testing.assert_allclose(p.sum(axis=1), 1.0)
        assert (p >= 0).all() and (p <= 1).all()


class TestSigmoid:
    @pytest.mark.parametrize("z,expected", [(0.0, 0.5), (100.0, 1.0), (-100.0, 0.0)])
    def test_values(self, z, expected):
        assert abs(sigmoid(np.array([z]))[0] - expected) < 1e-6

    def test_no_overflow_extreme(self):
        out = sigmoid(np.array([-1e4, 1e4]))
        assert np.isfinite(out).all()


class TestMLP:
    def test_learns_blobs(self):
        X, y = _blobs(400)
        m = MLPClassifier(hidden=(16,), epochs=30, seed=0).fit(X, y)
        assert accuracy(y, m.predict(X)) > 0.95

    def test_learns_xor(self):
        rng = np.random.default_rng(0)
        X = rng.random((800, 2)) * 2 - 1
        y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(int)
        m = MLPClassifier(hidden=(32, 16), epochs=80, lr=0.1, seed=1).fit(X, y)
        assert accuracy(y, m.predict(X)) > 0.9

    def test_proba_shape(self):
        X, y = _blobs(100)
        m = MLPClassifier(hidden=(8,), epochs=5).fit(X, y)
        assert m.predict_proba(X).shape == (100, 2)

    def test_deterministic(self):
        X, y = _blobs(100)
        a = MLPClassifier(hidden=(8,), epochs=5, seed=3).fit(X, y).decision_function(X)
        b = MLPClassifier(hidden=(8,), epochs=5, seed=3).fit(X, y).decision_function(X)
        np.testing.assert_array_equal(a, b)


class TestKMeans:
    def test_separates_clear_clusters(self):
        rng = np.random.default_rng(0)
        centers = np.array([[0, 0], [10, 10], [0, 10]])
        X = np.vstack([c + 0.3 * rng.standard_normal((100, 2)) for c in centers])
        km = KMeans(k=3, seed=1).fit(X)
        lab = km.predict(X)
        # each true cluster maps to one predicted label
        for i in range(3):
            block = lab[i * 100 : (i + 1) * 100]
            assert (block == np.bincount(block).argmax()).mean() > 0.99

    def test_k_greater_than_n(self):
        X = np.random.default_rng(0).random((5, 2))
        km = KMeans(k=10).fit(X)
        assert km.k == 5

    def test_inertia_decreases_with_k(self):
        rng = np.random.default_rng(2)
        X = rng.random((300, 3))
        inertias = [KMeans(k=k, seed=0).fit(X).inertia_ for k in [1, 2, 4, 8]]
        assert inertias == sorted(inertias, reverse=True)

    def test_predict_assigns_nearest(self):
        km = KMeans(k=2)
        km.centers_ = np.array([[0.0, 0.0], [10.0, 10.0]])
        lab = km.predict(np.array([[1.0, 1.0], [9.0, 9.0]]))
        assert list(lab) == [0, 1]


class TestMetrics:
    def test_auc_perfect(self):
        assert auc([0, 0, 1, 1], [0.1, 0.2, 0.8, 0.9]) == 1.0

    def test_auc_random(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 10_000)
        s = rng.random(10_000)
        assert abs(auc(y, s) - 0.5) < 0.02

    def test_auc_inverted(self):
        assert auc([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == 0.0

    def test_auc_ties(self):
        assert auc([0, 1], [0.5, 0.5]) == 0.5

    def test_auc_single_class_raises(self):
        with pytest.raises(ValueError):
            auc([1, 1], [0.1, 0.2])

    def test_accuracy(self):
        assert accuracy([1, 0, 1], [1, 1, 1]) == pytest.approx(2 / 3)
