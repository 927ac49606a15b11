"""Time each model form scored in Python, as a graph, and inlined as
SQL on Spark.

    python3 tools/inline_probe.py [--rows 250000] [--runs 5]

Spark runs on ``local[4]`` with a 2 GB driver, as ``perfbench`` does.
Each input table is cached in 8 partitions. The forms of one model are
run in turn, one ``force`` run of each form per round: one warm-up
round, then ``--runs`` timed rounds, so drift over the rounds falls on
every form alike. Each form's ``_s`` column is the median of its runs
and its ``Q1–Q3`` column the first and third quartile. "python" is
``codegen.map_in_pandas``: one wave of Python tasks, the form codegen
gives a predict with no SQL form. "graph" is the same wave scoring the
model's onnxlite graph (``nn_translate.translate_predict``); it is
timed for the Fig. 1 depth-6 tree, the flights LR, every forest and
the MLPs. "inlined" is ``inline_pipeline_sql``'s expression selected over the
same cached table, with ``spark.sql.codegen.hugeMethodLimit`` at 8000,
the value ``Raven`` sets; "inlined_default" is the same at Spark's
default, 65535, which keeps generated methods too large for HotSpot to
JIT. The printed markdown table has one row per form:

* the Fig. 1 depth-6 hospital regression tree, and the same tree
  trained to depth 8, 10, 12, 14 and 18;
* the flights logistic regression of the ``flights-graph`` workload,
  with its one-hot blocks as one CASE term per category (``case``) and
  as one map lookup per column (``map``, what ``linear_to_sql`` emits);
* depth-6 hospital forests of 5 to 60 trees (the first k trees of one
  60-tree forest);
* ``delay_rf``, the 10-tree depth-6 flights forest of the
  ``flights-graph`` workload, trained as that workload trains it, whose
  splits include one-hot features;
* a 100-tree depth-10 hospital forest, and the first 10 trees of a
  100-tree depth-10 flights forest. (All 100 of those flights trees,
  9339 CASE nodes, exceed Janino's 64 KB method limit: every run spends
  about a minute failing to compile, so the form is left out.)
* T5's flights MLP (hidden 32, 16) and a hospital MLP of the same
  shape. An MLP has no SQL form, so its inlined columns are empty and
  its ``max_abs_diff`` compares the graph's output instead.

``optimizer.inlining.MAX_CASE_NODES`` is read off this table: the
largest forest whose ``inlined_s`` beats both its ``python_s`` and its
``graph_s``, with every smaller forest winning too.

``CASE nodes`` and ``maps`` count the expression's size. ``max_abs_diff``
compares the inlined output (an MLP's graph output) with
``pipeline_output`` in the driver.
"""
from __future__ import annotations

import argparse
import copy
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PARTITIONS = 8


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--rows", type=int, default=250_000)
    p.add_argument("--runs", type=int, default=5)
    return p.parse_args(argv)


def start_spark():
    os.environ.setdefault("PYSPARK_SUBMIT_ARGS", " ".join([
        "--master local[4]", "--driver-memory 2g",
        "--conf spark.driver.host=127.0.0.1", "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false", "pyspark-shell",
    ]))
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + path if path else "")
    sys.path.insert(0, src)
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("inline_probe")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def linear_case_sql(pipe) -> str:
    """P[class 1] of a logistic pipeline with one CASE term per nonzero
    one-hot weight: ``linear_to_sql`` over the numeric weights, plus the
    categorical ones as CASE terms."""
    import numpy as np

    from repro.ir.expr import Lit, sql_double
    from repro.optimizer.inlining import linear_to_sql

    specs = pipe.featurizer.feature_specs
    is_cat = np.array([s[0] == "cat" for s in specs])
    numeric = copy.copy(pipe.model)
    numeric.coef_ = np.where(is_cat, 0.0, pipe.model.coef_)
    terms = [linear_to_sql(numeric, pipe.featurizer, kind="score")]
    for spec, w in zip(specs, pipe.model.coef_):
        if spec[0] == "cat" and w != 0.0:
            terms.append(f"(CASE WHEN {spec[1]} = {Lit(spec[2]).to_sql()} THEN {sql_double(w)} "
                         "ELSE 0.0E0 END)")
    return f"(1.0E0 / (1.0E0 + EXP(-({' + '.join(terms)}))))"


def sub_forest(pipe, k: int):
    """The pipeline's first ``k`` trees as a forest of their own."""
    from repro.miniml import Pipeline
    from repro.miniml.forest import with_members

    forest = with_members(pipe.model, pipe.model.trees[:k])
    forest.n_trees = k
    return Pipeline(pipe.featurizer, forest)


def alternating_times(spark, timed: dict, runs: int) -> dict:
    """``timed``: form name → (DataFrame, huge-method limit to set or
    None). One warm-up round, then ``runs`` rounds of one ``force`` of
    each form in turn. Returns ``<form>_s``, the median, and ``<form>
    Q1–Q3`` per form."""
    from repro.raven import HUGE_METHOD_LIMIT
    from repro.runtime.timing import force

    times: dict[str, list[float]] = {name: [] for name in timed}
    for r in range(runs + 1):
        for name, (df, limit) in timed.items():
            if limit is not None:
                spark.conf.set(HUGE_METHOD_LIMIT, limit)
            t0 = time.perf_counter()
            force(df)
            if r:
                times[name].append(time.perf_counter() - t0)
    out = {}
    for name, ts in times.items():
        q1, _, q3 = statistics.quantiles(ts, n=4)
        out[f"{name}_s"] = statistics.median(ts)
        out[f"{name} Q1–Q3"] = f"{q1:.3g}–{q3:.3g}"
    return out


def probe(spark, forms, runs: int) -> list[dict]:
    """``forms``: (name, cached table, pandas twin, pipeline, kind, SQL
    or None for a model with no SQL form, whether to time the graph)."""
    import numpy as np
    from pyspark.sql import functions as F

    from repro.ir import MLPredict, Scan
    from repro.ir.ops import pipeline_output
    from repro.optimizer.nn_translate import translate_predict
    from repro.raven import (
        HUGE_METHOD_LIMIT,
        JIT_HUGE_METHOD_LIMIT,
        SPARK_DEFAULT_HUGE_METHOD_LIMIT,
    )
    from repro.runtime.codegen import map_in_pandas

    rows = []
    for name, sdf, pdf, pipe, kind, sql, graph in forms:
        node = MLPredict(Scan("t"), name, pipe, "p", kind=kind)
        row = {"form": name}
        timed = {"python": (map_in_pandas(node, sdf), None)}
        if graph:
            timed["graph"] = (map_in_pandas(translate_predict(node), sdf), None)
        if sql is None:
            got = translate_predict(node).predict_pandas(pdf)
        else:
            inlined = sdf.select("_row", F.expr(sql).alias("p"))
            spark.conf.set(HUGE_METHOD_LIMIT, JIT_HUGE_METHOD_LIMIT)
            got = inlined.orderBy("_row").toPandas()["p"].to_numpy(dtype=np.float64)
            row.update({"CASE nodes": sql.count("CASE WHEN"), "maps": sql.count("element_at")})
            timed["inlined"] = (inlined, JIT_HUGE_METHOD_LIMIT)
            timed["inlined_default"] = (inlined, SPARK_DEFAULT_HUGE_METHOD_LIMIT)
        row.update(alternating_times(spark, timed, runs))
        row["max_abs_diff"] = float(np.max(np.abs(got - pipeline_output(pipe, pdf, kind))))
        rows.append(row)
        print(rows[-1], file=sys.stderr, flush=True)
    return rows


def main(argv=None) -> None:
    args = parse_args(argv)
    spark = start_spark()
    import numpy as np

    from repro.datasets import flights, hospital
    from repro.experiments.common import (
        fmt_table,
        flights_lr_pipeline,
        flights_mlp_pipeline,
        hospital_forest_pipeline,
        hospital_tree_pipeline,
    )
    from repro.miniml import MLPClassifier, Pipeline, RandomForest, TableFeaturizer
    from repro.optimizer.inlining import inline_pipeline_sql

    def cached(pdf):
        pdf = pdf.assign(_row=np.arange(len(pdf)))
        sdf = spark.createDataFrame(pdf).repartition(PARTITIONS).cache()
        sdf.count()
        return sdf, pdf

    def flights_forest(n_train: int, n_trees: int, max_depth: int):
        df = flights.frame(n_train, seed=0)
        return Pipeline(
            TableFeaturizer(numeric_cols=flights.NUMERIC, categorical_cols=flights.CATEGORICAL),
            RandomForest(n_trees=n_trees, max_depth=max_depth, min_samples_leaf=20,
                         max_features=0.5),
        ).fit(df, df["delayed"].to_numpy())

    hosp, hosp_pd = cached(hospital.joined_frame(args.rows, seed=1, with_label=False))
    fl, fl_pd = cached(flights.frame(args.rows, seed=1))
    forms = []
    for depth in (6, 8, 10, 12, 14, 18):
        pipe = hospital_tree_pipeline(n_train=20_000, seed=0, max_depth=depth)
        forms.append((f"tree depth {depth}", hosp, hosp_pd, pipe, "label",
                      inline_pipeline_sql(pipe, "label"), depth == 6))
    lr = flights_lr_pipeline(n_train=5_000, alpha=1e-5, seed=0)
    forms.append(("flights LR, case", fl, fl_pd, lr, "proba", linear_case_sql(lr), False))
    forms.append(("flights LR, map", fl, fl_pd, lr, "proba", inline_pipeline_sql(lr, "proba"),
                  True))
    forest = hospital_forest_pipeline(n_train=20_000, seed=0, n_trees=60, max_depth=6)
    for k in (5, 6, 7, 10, 20, 30, 40, 50, 60):
        pipe = sub_forest(forest, k)
        forms.append((f"forest {k} trees", hosp, hosp_pd, pipe, "proba",
                      inline_pipeline_sql(pipe, "proba"), True))
    delay_rf = flights_forest(2_000, n_trees=10, max_depth=6)
    forms.append(("delay_rf", fl, fl_pd, delay_rf, "proba",
                  inline_pipeline_sql(delay_rf, "proba"), True))
    big = hospital_forest_pipeline(n_train=20_000, seed=0, n_trees=100, max_depth=10)
    forms.append(("forest 100 trees depth 10", hosp, hosp_pd, big, "proba",
                  inline_pipeline_sql(big, "proba"), True))
    big = sub_forest(flights_forest(5_000, n_trees=100, max_depth=10), 10)
    forms.append(("flights forest 10 trees depth 10", fl, fl_pd, big, "proba",
                  inline_pipeline_sql(big, "proba"), True))
    forms.append(("flights MLP (32, 16)", fl, fl_pd,
                  flights_mlp_pipeline(n_train=50_000, seed=0), "proba", None, True))
    train = hospital.joined_frame(20_000, seed=0)
    hosp_mlp = Pipeline(
        TableFeaturizer(numeric_cols=hospital.FEATURES),
        MLPClassifier(hidden=(32, 16), epochs=5, seed=0),
    ).fit(train[hospital.FEATURES], (train["los"] > 7).astype(int).to_numpy())
    forms.append(("hospital MLP (32, 16)", hosp, hosp_pd, hosp_mlp, "proba", None, True))
    n_weights = int(sum(w != 0 for s, w in zip(lr.featurizer.feature_specs, lr.model.coef_)
                        if s[0] == "cat"))
    print(f"## Inlined vs graph vs Python, {args.rows} rows, local[4], "
          f"median and Q1–Q3 of {args.runs} alternating runs")
    print(f"(flights LR: {n_weights} nonzero one-hot weights; inlined_s at "
          "hugeMethodLimit 8000, inlined_default_s at 65535)\n")
    print(fmt_table(probe(spark, forms, args.runs),
                    ["form", "CASE nodes", "maps", "python_s", "python Q1–Q3", "graph_s",
                     "graph Q1–Q3", "inlined_s", "inlined Q1–Q3", "inlined_default_s",
                     "inlined_default Q1–Q3", "max_abs_diff"]))
    spark.stop()


if __name__ == "__main__":
    main()
