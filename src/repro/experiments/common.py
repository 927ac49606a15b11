"""Shared experiment utilities: table formatting and trained model
caches (so benchmarks don't retrain per test)."""
from __future__ import annotations

from functools import lru_cache

from repro.datasets import flights, hospital
from repro.miniml import (
    DecisionTree,
    LogisticRegressionL1,
    MLPClassifier,
    Pipeline,
    RandomForest,
    TableFeaturizer,
)
from repro.runtime.timing import Timing


def fmt_table(rows: list[dict], cols: list[str] | None = None) -> str:
    """Render rows as a GitHub-markdown table; a ``Timing`` cell reads
    ``median (q1–q3)``."""
    if not rows:
        return "(no rows)"
    cols = cols or list(rows[0].keys())

    def cell(v):
        if isinstance(v, float):
            return f"{v:.4g}"
        if isinstance(v, Timing):
            q1, q3 = v.quartiles
            return f"{v.median:.4g} ({q1:.4g}–{q3:.4g})"
        return str(v)

    out = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    for r in rows:
        out.append("| " + " | ".join(cell(r.get(c, "")) for c in cols) + " |")
    return "\n".join(out)


@lru_cache(maxsize=None)
def hospital_tree_pipeline(n_train: int = 20_000, seed: int = 0,
                           max_depth: int = 6) -> Pipeline:
    """The running example's LOS regression tree."""
    df = hospital.joined_frame(n_train, seed=seed)
    return Pipeline(
        TableFeaturizer(numeric_cols=hospital.FEATURES, scale=False),
        DecisionTree(task="regression", max_depth=max_depth, min_samples_leaf=20),
    ).fit(df[hospital.FEATURES], df["los"].to_numpy())


@lru_cache(maxsize=None)
def hospital_forest_pipeline(n_train: int = 20_000, seed: int = 0,
                             n_trees: int = 10, max_depth: int = 6) -> Pipeline:
    """Binary classifier: will the stay exceed a week? (Fig. 2d model)"""
    df = hospital.joined_frame(n_train, seed=seed)
    y = (df["los"] > 7).astype(int).to_numpy()
    return Pipeline(
        TableFeaturizer(numeric_cols=hospital.FEATURES, scale=False),
        RandomForest(n_trees=n_trees, max_depth=max_depth, min_samples_leaf=20, seed=seed),
    ).fit(df[hospital.FEATURES], y)


@lru_cache(maxsize=None)
def flights_lr_pipeline(n_train: int = 50_000, alpha: float = 0.001,
                        seed: int = 0, n_airports: int | None = None) -> Pipeline:
    df = flights.frame(n_train, seed=seed,
                       n_airports=n_airports or flights.N_AIRPORTS)
    return Pipeline(
        TableFeaturizer(numeric_cols=flights.NUMERIC, categorical_cols=flights.CATEGORICAL),
        LogisticRegressionL1(alpha=alpha, max_iter=500),
    ).fit(df, df["delayed"].to_numpy())


@lru_cache(maxsize=None)
def flights_forest_pipeline(n_train: int = 50_000, seed: int = 0,
                            n_trees: int = 10, max_depth: int = 6) -> Pipeline:
    df = flights.frame(n_train, seed=seed)
    return Pipeline(
        TableFeaturizer(numeric_cols=flights.NUMERIC, categorical_cols=flights.CATEGORICAL),
        RandomForest(n_trees=n_trees, max_depth=max_depth, min_samples_leaf=20, seed=seed),
    ).fit(df, df["delayed"].to_numpy())


@lru_cache(maxsize=None)
def flights_mlp_pipeline(n_train: int = 50_000, seed: int = 0) -> Pipeline:
    df = flights.frame(n_train, seed=seed)
    return Pipeline(
        TableFeaturizer(numeric_cols=flights.NUMERIC, categorical_cols=flights.CATEGORICAL),
        MLPClassifier(hidden=(32, 16), epochs=5, seed=seed),
    ).fit(df, df["delayed"].to_numpy())

