"""Smoke tests for the T1–T8 experiment harnesses at tiny scale: they
must produce well-formed rows and internally consistent measurements
(correctness of the underlying transforms is covered by the unit
suites; here we pin the harness plumbing)."""
import numpy as np
import pytest

from repro.experiments import (
    t1_projection_pushdown as t1,
    t2_model_clustering as t2,
    t3_model_inlining as t3,
    t4_nn_translation as t4,
    t5_integration as t5,
    t6_predicate_pruning as t6,
    t7_batch_inference as t7,
    t8_static_analysis as t8,
)
from repro.experiments.common import fmt_table


class TestT1:
    def test_sweep_monotone_sparsity(self):
        rows = t1.train_sweep(n_train=5_000, seed=0)
        sp = [r["sparsity_pct"] for r in rows]
        assert sp == sorted(sp)

    def test_run_rows(self):
        rows = t1.run(n_infer=20_000, n_train=5_000, runs=1)
        assert len(rows) == 2
        for r in rows:
            assert r["features_after"] <= r["features_before"]
            assert r["speedup"] > 0


class TestT2:
    def test_flights_rows(self):
        rows = t2.run(n_infer=20_000, n_train=5_000, runs=1, sample_n=5_000,
                      ks=[2], n_airports=50)
        assert rows[0]["k"] == 1 and rows[1]["k"] == 2
        assert rows[1]["avg_features"] < rows[0]["avg_features"]

    def test_hospital_rows(self):
        rows = t2.run_hospital(n_infer=10_000, n_train=5_000, runs=1, ks=[2])
        assert rows[0]["dataset"] == "hospital"


class TestT3:
    def test_rows(self, spark):
        rows = t3.run(spark, n_infer=5_000, n_train=5_000, runs=1)
        assert [r["variant"] for r in rows] == [
            "external (miniml reading from DB)",
            "inlined SQL (Raven)",
            "external, WHERE pregnant=1",
            "inlined SQL, filtered (no pruning)",
            "inlined+pruned SQL (Raven)",
        ]
        assert all(r["time_s"] > 0 for r in rows)


class TestT4:
    def test_rows_and_caps(self):
        rows = t4.run(sizes=[500, 30_000], n_train=5_000, runs=1)
        assert rows[0]["rf_row_s"] is not None  # under the per-row cap
        assert rows[1]["rf_row_s"] is None  # capped
        assert rows[0]["rf_nn_gpu_s"] == "n/a (no GPU)"


class TestT5:
    def test_rows(self, spark, tmp_path):
        rows = t5.run(spark, str(tmp_path), sizes=[200], n_train=5_000,
                      runs=1, models=["rf"])
        (r,) = rows
        assert r["ort_s"] > 0 and r["raven_s"] > 0 and r["raven_ext_s"] > 0
        assert r["ort_warm_s"] <= r["ort_s"] * 1.5  # warm never much slower

    def test_raven_runs_the_forest_graph(self, spark):
        """The Raven column scores the same onnxlite graph ORT does, in
        one ``mapInPandas``, although the forest has an SQL form."""
        from repro.datasets import flights
        from repro.experiments.common import flights_forest_pipeline

        pipe = flights_forest_pipeline(n_train=2_000, seed=0, n_trees=3, max_depth=3)
        out = t5.raven_predict(spark, spark.createDataFrame(flights.frame(100, seed=1)),
                               "rf", pipe)
        plan = out._jdf.queryExecution().executedPlan().toString()
        assert plan.count("MapInPandas") == 1


class TestT6:
    def test_tree_rows(self):
        (r,) = t6.run_tree(n_infer=20_000, n_train=5_000, runs=2)
        assert r["nodes_after"] < r["nodes_before"]

    def test_categorical_rows_selectivity_varies(self):
        rows = t6.run_categorical(n_infer=50_000, n_train=5_000, runs=1,
                                  dests=["A00", "A10"])
        sels = [r["selectivity_pct"] for r in rows]
        assert sels[0] > sels[1]  # skewed: A00 much more common
        assert all(r["features_after"] < r["features_before"] for r in rows)


class TestT7:
    def test_rows(self, spark):
        rows = t7.run(spark, n_infer=2_000, n_train=5_000, runs=1)
        assert rows[0]["variant"] == "per-tuple UDF"
        assert rows[1]["speedup_vs_per_tuple"] > 0


class TestT8:
    def test_rows_under_10ms(self):
        rows = t8.run(reps=5, n_train=2_000)
        assert len(rows) == len(t8.SCRIPTS)
        assert all(r["under_10ms"] for r in rows)
        assert any(r["udf_fallbacks"] > 0 for r in rows)
        assert any(r["plans"] == 2 for r in rows)


class TestFmtTable:
    def test_markdown_shape(self):
        out = fmt_table([{"a": 1, "b": 2.34567}])
        assert out.splitlines()[0] == "| a | b |"
        assert "2.346" in out

    def test_empty(self):
        assert fmt_table([]) == "(no rows)"
