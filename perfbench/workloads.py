"""Seeded inputs, trained models and query mixes of the two workloads.

Tables come from ``--seed``; the models are trained once from fixed
training seeds, as a deployed model store would hold them, so that a
run-to-run difference comes from the scored data, not from a
differently shaped model.
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.datasets import flights, hospital
from repro.experiments.common import flights_lr_pipeline, hospital_tree_pipeline
from repro.ir import Catalog
from repro.miniml import Pipeline, RandomForest, TableFeaturizer
from repro.optimizer import CrossOptimizer, default_rules
from repro.optimizer.nn_translate import NNTranslation
from repro.raven import Raven

# Rows per base table: a 16 s window holds four or more whole rounds of
# a workload's query mix on 4 cores.
HOSPITAL_ROWS = 250_000
FLIGHTS_ROWS = 250_000
PARTITIONS = 8  # cached partitions per table: two per core of local[4]

HOSPITAL_SCHEMAS = {
    "patient_info": ["pid", "age", "gender", "pregnant", "smoker"],
    "blood_tests": ["pid", "bp", "hematocrit", "glucose"],
    "prenatal_tests": ["pid", "trimester", "fetal_hr"],
}
FLIGHTS_COLS = ["flight_id", *flights.CATEGORICAL, *flights.NUMERIC, "delayed"]
KEYS = {**{t: "pid" for t in HOSPITAL_SCHEMAS}, "flights": "flight_id"}

LOS_JOIN = (
    "SELECT pid, age, PREDICT(MODEL los_model) AS predicted_los "
    "FROM patient_info JOIN blood_tests ON pid = pid "
    "JOIN prenatal_tests ON pid = pid WHERE {where}"
)
FLIGHTS_SCORE = "SELECT flight_id, PREDICT(MODEL {model}) AS p_delay FROM flights"
# the scoring query as a Python script
LR_SCRIPT = """
pred = delay_lr.predict_proba(flights)
out = pred[["flight_id", "prediction"]]
"""
# the Fig. 1 query as the data scientist's Python script
FIG1_SCRIPT = """
df = patient_info.merge(blood_tests, on="pid")
df = df.merge(prenatal_tests, on="pid")
df = df[df["pregnant"] == 1]
pred = los_model.predict(df)
pred = pred[pred["prediction"] > 7]
out = pred[["pid", "age", "prediction"]]
"""


@dataclass
class Query:
    """One query form: SQL through ``Raven.run`` or a Python script
    through ``Raven.analyze_python``."""

    name: str
    raven: Raven
    sql: str | None = None
    script: str | None = None
    # rows entering the predict of the unoptimized plan, counted on the
    # generated tables: a rewrite that scores fewer rows reads as a
    # faster query, not as less work
    predict_rows: int = 0

    def analyze(self):
        if self.sql is not None:
            return self.raven.analyze_sql(self.sql)
        return self.raven.analyze_python(self.script).plans[0]

    def run(self):
        """The facade path the timed loop measures."""
        if self.sql is not None:
            return self.raven.run(self.sql)
        return self.raven.execute(self.raven.optimize(self.analyze()).plan)

    def reference(self):
        """The unoptimized plan: the result every optimized run must equal."""
        if self.sql is not None:
            return self.raven.run(self.sql, optimize=False)
        return self.raven.execute(self.analyze())


@dataclass
class Setup:
    """A workload ready to time, with the cost of each set-up stage."""

    queries: list[Query]
    tables: dict[str, pd.DataFrame]  # generated inputs, for the oracle
    raven: Raven
    stage_s: dict[str, float]
    partitions: dict[str, int]


def _timed(stage_s: dict, name: str, fn):
    t0 = time.perf_counter()
    out = fn()
    stage_s[name] = time.perf_counter() - t0
    return out


def generate(workload: str, seed: int) -> dict[str, pd.DataFrame]:
    if workload == "los-join":
        return hospital.tables(HOSPITAL_ROWS, seed=seed)
    return {"flights": flights.frame(FLIGHTS_ROWS, seed=seed)[FLIGHTS_COLS]}


def train(workload: str) -> dict[str, tuple]:
    """Model name -> (pipeline, kind). Fixed training seeds."""
    models = {}
    if workload == "los-join":
        models["los_model"] = (hospital_tree_pipeline(n_train=20_000, seed=0), "label")
    else:
        df = flights.frame(2_000, seed=0)
        forest = Pipeline(
            TableFeaturizer(numeric_cols=flights.NUMERIC, categorical_cols=flights.CATEGORICAL),
            RandomForest(n_trees=10, max_depth=6, min_samples_leaf=20, max_features=0.5),
        ).fit(df, df["delayed"].to_numpy())
        models["delay_rf"] = (forest, "proba")
        # a small L1 penalty keeps the model dense: no one-hot block is pruned
        models["delay_lr"] = (flights_lr_pipeline(n_train=5_000, alpha=1e-5, seed=0), "proba")
    return models


def write_parquet(tables: dict[str, pd.DataFrame], root: str) -> dict[str, str]:
    """One directory per table of ``PARTITIONS`` files, each read back as
    one partition."""
    paths = {}
    for name, pdf in tables.items():
        paths[name] = os.path.join(root, name)
        os.makedirs(paths[name])
        for i, part in enumerate(np.array_split(np.arange(len(pdf)), PARTITIONS)):
            pdf.iloc[part].to_parquet(os.path.join(paths[name], f"part-{i:03d}.parquet"),
                                      index=False)
    return paths


def load(spark, paths: dict[str, str]) -> dict:
    """Read each table back from Parquet and cache it."""
    dfs = {}
    for name, path in paths.items():
        df = spark.read.parquet(path).cache()
        df.count()
        dfs[name] = df
    return dfs


def catalog_for(tables: dict[str, pd.DataFrame]) -> Catalog:
    cat = Catalog()
    for name in tables:
        cols = HOSPITAL_SCHEMAS.get(name, FLIGHTS_COLS)
        cat.add_table(name, cols, {KEYS[name]})
    return cat


def build(spark, workload: str, seed: int, workdir: str) -> Setup:
    """Generate, store, train and load; return the workload's queries.
    ``stage_s`` holds the time of each stage."""
    stage_s: dict[str, float] = {}
    tables = _timed(stage_s, "generate_s", lambda: generate(workload, seed))
    paths = _timed(stage_s, "parquet_s", lambda: write_parquet(tables, workdir))
    models = _timed(stage_s, "train_s", lambda: train(workload))
    dfs = _timed(stage_s, "load_s", lambda: load(spark, paths))

    raven = Raven(spark=spark, catalog=catalog_for(tables), tables=dfs)
    for name, (pipe, kind) in models.items():
        raven.register_model(name, pipe, kind=kind)
    if workload == "los-join":
        pregnant = int((tables["patient_info"]["pregnant"] == 1).sum())
        queries = [
            Query("fig1", raven, sql=LOS_JOIN.format(where="pregnant = 1 AND predicted_los > 7"),
                  predict_rows=pregnant),
            Query("nofilter", raven, sql=LOS_JOIN.format(where="predicted_los > 7"),
                  predict_rows=HOSPITAL_ROWS),
            Query("fig1-py", raven, script=FIG1_SCRIPT, predict_rows=pregnant),
        ]
    else:
        raven.optimizer = CrossOptimizer(default_rules() + [NNTranslation()])
        queries = [
            Query("rf-nn", raven, sql=FLIGHTS_SCORE.format(model="delay_rf"),
                  predict_rows=FLIGHTS_ROWS),
            Query("lr-nn", raven, sql=FLIGHTS_SCORE.format(model="delay_lr"),
                  predict_rows=FLIGHTS_ROWS),
            Query("lr-nn-py", raven, script=LR_SCRIPT, predict_rows=FLIGHTS_ROWS),
        ]
    partitions = {name: df.rdd.getNumPartitions() for name, df in dfs.items()}
    return Setup(queries, tables, raven, stage_s, partitions)
