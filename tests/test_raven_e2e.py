"""End-to-end inference queries through the full Raven path:
analyze → cross-optimize → codegen → Spark, checked for result
equivalence (optimized vs unoptimized, and against the DuckDB oracle
for the relational skeleton)."""
import numpy as np
import pandas as pd
import pytest

from repro.datasets import hospital
from repro.ir import Catalog, Join, MLPredict, Project, Scan, walk
from repro.miniml import DecisionTree, Pipeline, TableFeaturizer
from repro.ir.ops import pipeline_output
from repro.raven import Raven


@pytest.fixture(scope="module")
def setup(spark):
    n = 2000
    t = hospital.tables(n, seed=31)
    train = hospital.joined_frame(n, seed=31)
    pipe = Pipeline(
        TableFeaturizer(numeric_cols=hospital.FEATURES, scale=False),
        DecisionTree(task="regression", max_depth=6, min_samples_leaf=20),
    ).fit(train[hospital.FEATURES], train["los"].to_numpy())
    catalog = (
        Catalog()
        .add_table("patient_info", ["pid", "age", "gender", "pregnant", "smoker"], {"pid"})
        .add_table("blood_tests", ["pid", "bp", "hematocrit", "glucose"], {"pid"})
        .add_table("prenatal_tests", ["pid", "trimester", "fetal_hr"], {"pid"})
    )
    raven = Raven(
        spark=spark,
        catalog=catalog,
        tables={k: spark.createDataFrame(v) for k, v in t.items()},
    )
    raven.register_model("los_model", pipe, kind="label")
    return raven, pipe, train


RUNNING_EXAMPLE = (
    "SELECT pid, age, PREDICT(MODEL los_model) AS predicted_los "
    "FROM patient_info "
    "JOIN blood_tests ON pid = pid "
    "JOIN prenatal_tests ON pid = pid "
    "WHERE pregnant = 1 AND predicted_los > 7"
)


class TestRunningExample:
    def test_optimized_equals_unoptimized(self, setup):
        raven, _, _ = setup
        a = raven.run(RUNNING_EXAMPLE, optimize=False).toPandas().sort_values("pid").reset_index(drop=True)
        b = raven.run(RUNNING_EXAMPLE, optimize=True).toPandas().sort_values("pid").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)

    def test_optimizer_prunes_model(self, setup):
        raven, pipe, _ = setup
        plan = raven.analyze_sql(RUNNING_EXAMPLE)
        report = raven.optimize(plan)
        ml = next(n for n in walk(report.plan) if isinstance(n, MLPredict))
        assert ml.pipeline.model.n_nodes < pipe.model.n_nodes
        assert "predicate_based_model_pruning" in report.applied

    def test_gender_dropped_after_pruning(self, setup):
        """Fig. 1: pregnant=1 prunes the non-pregnant branch; gender was
        only used there, so projection pushdown removes it."""
        raven, _, _ = setup
        plan = raven.analyze_sql(RUNNING_EXAMPLE)
        report = raven.optimize(plan)
        ml = next(n for n in walk(report.plan) if isinstance(n, MLPredict))
        assert "gender" not in ml.pipeline.input_cols

    def test_optimizer_converges(self, setup):
        """A converged plan makes every rule report no change, so the
        optimizer stops early and no pruned Project is stacked twice."""
        raven, _, _ = setup
        report = raven.optimize(raven.analyze_sql(RUNNING_EXAMPLE))
        assert report.iterations < raven.optimizer.max_iterations
        assert not [
            n for n in walk(report.plan)
            if isinstance(n, Project) and isinstance(n.child, Project)
            and n.output_names == n.child.output_names
        ]

    def test_result_matches_local_reference(self, setup):
        raven, pipe, train = setup
        got = (
            raven.run(RUNNING_EXAMPLE)
            .toPandas()
            .sort_values("pid")
            .reset_index(drop=True)
        )
        ref = train.copy()
        ref["predicted_los"] = pipe.predict(ref)
        ref = ref[(ref["pregnant"] == 1) & (ref["predicted_los"] > 7)]
        ref = ref[["pid", "age", "predicted_los"]].sort_values("pid").reset_index(drop=True)
        got["age"] = got["age"].astype(ref["age"].dtype)
        pd.testing.assert_frame_equal(got, ref, check_dtype=False)

    def test_inlined_run_matches(self, setup):
        """The pruned tree runs as SQL, with no Python wave, and gives
        what the pruned pipeline gives on the same rows."""
        raven, _, train = setup
        df = raven.run(RUNNING_EXAMPLE)
        physical = df._jdf.queryExecution().executedPlan().toString()
        assert "MapInPandas" not in physical
        ml = next(n for n in walk(raven.optimize(raven.analyze_sql(RUNNING_EXAMPLE)).plan)
                  if isinstance(n, MLPredict))
        a = df.toPandas().sort_values("pid").reset_index(drop=True)
        ref = train[train["pregnant"] == 1].copy()
        ref["predicted_los"] = pipeline_output(ml.pipeline, ref, ml.kind)
        ref = ref[ref["predicted_los"] > 7][["pid", "age", "predicted_los"]]
        b = ref.sort_values("pid").reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b, check_dtype=False)

    def test_python_script_path(self, setup):
        raven, pipe, train = setup
        script = """
df = patient_info.merge(blood_tests, on="pid")
df = df.merge(prenatal_tests, on="pid")
df = df[df["pregnant"] == 1]
pred = los_model.predict(df)
"""
        res = raven.analyze_python(script)
        assert res.udf_count == 0
        plan = res.plans[0]
        df = raven.execute(plan).toPandas().sort_values("pid")
        ref = train[train["pregnant"] == 1].sort_values("pid")
        np.testing.assert_allclose(df["prediction"].to_numpy(), pipe.predict(ref))

    def test_static_analysis_under_10ms(self, setup):
        """§3.2: 'in most practical cases ... less than 10 msec'."""
        raven, _, _ = setup
        script = "df = patient_info.merge(blood_tests, on=\"pid\")\npred = los_model.predict(df)\n"
        times = [raven.analyze_python(script).elapsed_ms for _ in range(20)]
        assert sorted(times)[len(times) // 2] < 10.0


def test_raven_lowers_huge_method_limit_only_from_default(spark):
    """A Raven sets its session's whole-stage codegen method limit to
    8000, the size HotSpot JITs, when it still holds Spark's default;
    a value set on the session before stays."""
    key = "spark.sql.codegen.hugeMethodLimit"
    before = spark.conf.get(key)
    try:
        spark.conf.unset(key)
        assert spark.conf.get(key) == "65535"
        Raven(spark=spark, catalog=Catalog(), tables={})
        assert spark.conf.get(key) == "8000"
        spark.conf.set(key, "20000")
        Raven(spark=spark, catalog=Catalog(), tables={})
        assert spark.conf.get(key) == "20000"
    finally:
        spark.conf.set(key, before)
