"""T3 — model inlining (paper Fig. 2c).

Protocol: a decision tree predicting hospital length of stay, scored
over 300K tuples stored in the DB (Spark tables) three ways:

* **external** — the paper's baseline "running the decision tree in
  scikit-learn reading data from the DB": rows leave the engine
  (``toPandas``), are featurized, and traversed in the driver;
* **inlined** — the plan compiled by ``runtime.codegen``, which runs
  the tree as a SQL CASE expression in Spark (whole-stage codegen,
  fully parallel; no data movement);
* **inlined+pruned** — the same with a ``pregnant=1`` selection, where
  predicate-based pruning first shrinks the tree (paper: 17× for
  inlining, 24.5× total with pruning).
"""
from __future__ import annotations

from repro.datasets import hospital
from repro.experiments.common import hospital_tree_pipeline
from repro.ir import Catalog, Cmp, Col, Filter, Lit, MLPredict, Scan
from repro.optimizer import CrossOptimizer, default_rules
from repro.runtime.codegen import to_dataframe
from repro.runtime.timing import force, measure


def _plans(pipe, catalog):
    base = MLPredict(Scan("joined"), "los", pipe, "pred")
    filt = MLPredict(
        Filter(Scan("joined"), Cmp("=", Col("pregnant"), Lit(1))), "los", pipe, "pred"
    )
    return {
        "inlined": base,
        "inlined_filtered": filt,
        "inlined+pruned": CrossOptimizer(default_rules()).optimize(filt, catalog).plan,
    }


def run(spark, n_infer: int = 300_000, n_train: int = 20_000, seed: int = 0,
        runs: int = 3) -> list[dict]:
    pipe = hospital_tree_pipeline(n_train=n_train, seed=seed)
    data = hospital.joined_frame(n_infer, seed=seed + 13, with_label=False)
    sdf = spark.createDataFrame(data).cache()
    sdf.count()  # materialize the cache: all variants read the same hot data
    catalog = Catalog().add_table("joined", list(data.columns), {"pid"})
    tables = {"joined": sdf}
    plans = _plans(pipe, catalog)

    # external baseline: data leaves the DB, model runs in the driver
    def external():
        pdf = sdf.toPandas()
        return pipe.predict(pdf)

    def external_filtered():
        pdf = sdf.where("pregnant = 1").toPandas()
        return pipe.predict(pdf)

    def spark_run(plan):
        return lambda: force(to_dataframe(plan, spark, tables))

    rows = []
    t_ext = measure(external, warmup=1, runs=runs)
    rows.append({"variant": "external (miniml reading from DB)", "rows": n_infer,
                 "time_s": t_ext.median, "speedup_vs_external": 1.0})
    t_inl = measure(spark_run(plans["inlined"]), warmup=1, runs=runs)
    rows.append({"variant": "inlined SQL (Raven)", "rows": n_infer,
                 "time_s": t_inl.median,
                 "speedup_vs_external": t_ext.median / t_inl.median})
    t_extf = measure(external_filtered, warmup=1, runs=runs)
    rows.append({"variant": "external, WHERE pregnant=1", "rows": n_infer,
                 "time_s": t_extf.median, "speedup_vs_external": 1.0})
    t_inlf = measure(spark_run(plans["inlined_filtered"]), warmup=1, runs=runs)
    rows.append({"variant": "inlined SQL, filtered (no pruning)", "rows": n_infer,
                 "time_s": t_inlf.median,
                 "speedup_vs_external": t_extf.median / t_inlf.median})
    t_inlp = measure(spark_run(plans["inlined+pruned"]), warmup=1, runs=runs)
    rows.append({"variant": "inlined+pruned SQL (Raven)", "rows": n_infer,
                 "time_s": t_inlp.median,
                 "speedup_vs_external": t_extf.median / t_inlp.median})
    sdf.unpersist()
    return rows
