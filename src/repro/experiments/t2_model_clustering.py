"""T2 — model clustering (paper Fig. 2b).

Protocol: k-means-cluster 700K flight tuples, precompile one
specialized logistic-regression model per cluster (one-hot categories
that never occur in a cluster are dropped), route rows by destination
lookup. Sweep k; report inference time vs the unclustered model, plus
clustering and model-compile time (the paper: inference −54% at best,
diminishing returns in k; clustering 0.4–42 s; compile negligible).

The hospital counterpart shows ~no gain: its categorical features are
already binary, so per-cluster models drop almost nothing — exactly the
paper's explanation.
"""
from __future__ import annotations

import numpy as np

from repro.datasets import flights, hospital
from repro.experiments.common import flights_lr_pipeline
from repro.miniml import LogisticRegressionL1, Pipeline, TableFeaturizer
from repro.optimizer.clustering import compile_clustered
from repro.runtime.timing import measure

KS = [1, 2, 4, 8, 16, 32]


N_AIRPORTS_WIDE = 300  # paper's Kaggle data has ~630 airports


def run(n_infer: int = 700_000, n_train: int = 50_000, seed: int = 0,
        runs: int = 3, sample_n: int = 30_000, ks: list[int] | None = None,
        n_airports: int = N_AIRPORTS_WIDE) -> list[dict]:
    pipe = flights_lr_pipeline(n_train=n_train, alpha=0.0, seed=seed,
                               n_airports=n_airports)
    data = flights.frame(n_infer, seed=seed + 3, n_airports=n_airports)
    sample = flights.frame(sample_n, seed=seed + 4, n_airports=n_airports)
    base = measure(lambda: pipe.predict_proba(data)[:, 1], warmup=1, runs=runs)
    rows = [
        {
            "dataset": "flights", "k": 1,
            "avg_features": pipe.featurizer.n_features,
            "infer_s": base.median, "reduction_pct": 0.0,
            "cluster_s": 0.0, "compile_s": 0.0,
        }
    ]
    for k in (ks or KS):
        if k == 1:
            continue
        cm = compile_clustered(pipe, sample, k=k, cluster_col="dest", seed=seed)
        t = measure(lambda: cm.predict(data, "proba"), warmup=1, runs=runs)
        rows.append(
            {
                "dataset": "flights", "k": k,
                "avg_features": cm.avg_features(),
                "infer_s": t.median,
                "reduction_pct": 100 * (1 - t.median / base.median),
                "cluster_s": cm.cluster_seconds,
                "compile_s": cm.compile_seconds,
            }
        )
    return rows


def run_hospital(n_infer: int = 300_000, n_train: int = 20_000, seed: int = 0,
                 runs: int = 3, ks: list[int] | None = None) -> list[dict]:
    """Hospital-stay variant: binary categoricals → clustering drops
    (almost) no features → no benefit."""
    train = hospital.joined_frame(n_train, seed=seed)
    y = (train["los"] > 7).astype(int).to_numpy()
    num = ["age", "bp", "hematocrit", "glucose", "trimester", "fetal_hr"]
    cat = ["gender", "pregnant", "smoker"]  # already-binary categoricals
    pipe = Pipeline(
        TableFeaturizer(numeric_cols=num, categorical_cols=cat),
        LogisticRegressionL1(alpha=0.0, max_iter=300),
    ).fit(train, y)
    data = hospital.joined_frame(n_infer, seed=seed + 5)
    sample = hospital.joined_frame(20_000, seed=seed + 6)
    base = measure(lambda: pipe.predict_proba(data)[:, 1], warmup=1, runs=runs)
    rows = [
        {"dataset": "hospital", "k": 1, "avg_features": pipe.featurizer.n_features,
         "infer_s": base.median, "reduction_pct": 0.0}
    ]
    for k in (ks or [2, 8]):
        cm = compile_clustered(pipe, sample, k=k, cluster_col="pregnant", seed=seed)
        t = measure(lambda: cm.predict(data, "proba"), warmup=1, runs=runs)
        rows.append(
            {"dataset": "hospital", "k": k, "avg_features": cm.avg_features(),
             "infer_s": t.median,
             "reduction_pct": 100 * (1 - t.median / base.median)}
        )
    return rows
