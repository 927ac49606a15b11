"""The predict-output contract (``ir.ops.model_output``) in every
physical form: for each model and kind, the miniml pipeline
(``pipeline_output``), its SQL expression (``inline_pipeline_sql``,
run on Spark) and its onnxlite graph (``translate_predict``) return the
same output, or every form raises.

The SQL runs on Spark, the engine that runs it in ``Raven``: DuckDB
cannot parse the ``array(...)`` map lookups of a linear model's one-hot
blocks."""
import numpy as np
import pandas as pd
import pytest

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
from repro.optimizer.inlining import inline_pipeline_sql
from repro.optimizer.nn_translate import translate_predict

KINDS = ("label", "proba", "score")

# model name → (estimator, target): binary, 3-class or regression
MODELS = {
    "tree": (lambda: DecisionTree(max_depth=4, min_samples_leaf=5), "binary"),
    "tree_3class": (lambda: DecisionTree(max_depth=4, min_samples_leaf=5), "3class"),
    "tree_regressor": (lambda: DecisionTree(task="regression", max_depth=4,
                                            min_samples_leaf=5), "regression"),
    "forest": (lambda: RandomForest(n_trees=4, max_depth=4, max_features=0.7, seed=1),
               "binary"),
    "forest_3class": (lambda: RandomForest(n_trees=4, max_depth=4, max_features=0.7, seed=1),
                      "3class"),
    "forest_regressor": (lambda: RandomForest(n_trees=4, task="regression", max_depth=4,
                                              seed=1), "regression"),
    "logistic": (lambda: LogisticRegressionL1(alpha=1e-4, max_iter=200), "binary"),
    "linear_regression": (lambda: LinearRegression(), "regression"),
    "mlp": (lambda: MLPClassifier(hidden=(8, 4), epochs=3, seed=0), "binary"),
}

# outputs the pipeline and graph return but no SQL expression renders:
# an MLP has no SQL form, a forest's label over three classes none either
NO_SQL = {("forest_3class", "label")} | {("mlp", kind) for kind in KINDS}


def _frame(n: int, seed: int) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    return pd.DataFrame({
        "age": rng.integers(18, 90, n).astype(float),
        "bp": rng.normal(120, 15, n),
        "dest": rng.choice(["JFK", "SEA", "SFO", "LAX"], n),
        "carrier": rng.choice(["AA", "DL", "UA"], n),
    })


def _targets(df: pd.DataFrame) -> dict[str, np.ndarray]:
    return {
        "binary": ((df["age"] > 50) ^ (df["dest"] == "JFK")).astype(int).to_numpy(),
        "3class": np.digitize(df["bp"], [110, 130]),
        "regression": df["bp"].to_numpy() * 0.1 + (df["dest"] == "SEA") * 3.0,
    }


def _outcome(fn):
    """``fn()`` as float64, or the exception it raised."""
    try:
        return np.asarray(fn(), dtype=np.float64)
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as e:
        return e


@pytest.fixture(scope="module")
def forms(spark) -> dict[tuple[str, str], dict[str, object]]:
    """(model, kind) → {form: output or exception} over rows with NULL
    numerics, NULL categories and categories unseen in training."""
    train = _frame(600, seed=0)
    score = _frame(300, seed=1)
    score.loc[::7, "age"] = np.nan
    score.loc[3::11, "bp"] = np.nan
    score.loc[::4, "dest"] = "ORD"
    score.loc[1::5, "carrier"] = None
    sdf = spark.createDataFrame(score.assign(_row=np.arange(len(score))))
    targets = _targets(train)
    out = {}
    for name, (make, target) in MODELS.items():
        pipe = Pipeline(TableFeaturizer(numeric_cols=["age", "bp"],
                                        categorical_cols=["dest", "carrier"]),
                        make()).fit(train, targets[target])
        sql = {}
        for kind in KINDS:
            out[name, kind] = {
                "pipeline": _outcome(lambda: pipeline_output(pipe, score, kind)),
                "graph": _outcome(lambda: translate_predict(
                    MLPredict(Scan("t"), name, pipe, "p", kind=kind)).predict_pandas(score)),
            }
            try:
                sql[kind] = inline_pipeline_sql(pipe, kind)
            except (TypeError, ValueError) as e:
                out[name, kind]["sql"] = e
        if sql:
            rows = sdf.selectExpr("_row", *(f"{e} AS {k}" for k, e in sql.items()))
            got = rows.orderBy("_row").toPandas()
            for kind in sql:
                out[name, kind]["sql"] = got[kind].to_numpy(dtype=np.float64)
    feeds = pipe.featurizer.transform_codes(score)
    assert np.isnan(feeds["num"]).any(axis=1).sum() > 0
    assert (feeds["cat_dest"] == -1).sum() == len(score[::4])
    assert (feeds["cat_carrier"] == -1).sum() == len(score[1::5])
    return out


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("model", list(MODELS))
def test_forms_agree_or_all_raise(forms, model, kind):
    got = forms[model, kind]
    ref = got["pipeline"]
    if isinstance(ref, Exception):
        for form, out in got.items():
            assert isinstance(out, Exception), f"{form} answers {kind!r}; the pipeline has none"
        return
    for form in ("graph", "sql"):
        if form == "sql" and (model, kind) in NO_SQL:
            assert isinstance(got["sql"], (TypeError, ValueError))
            continue
        assert not isinstance(got[form], Exception), f"{form}: {got[form]!r}"
        np.testing.assert_allclose(got[form], ref, rtol=0, atol=1e-12, equal_nan=True,
                                   err_msg=form)
