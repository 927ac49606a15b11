"""Runtime tests: codegen on Spark, model store, execution modes."""
import numpy as np
import pandas as pd
import pytest

from repro.datasets import flights, hospital
from repro.ir import Cmp, Col, Filter, Join, Lit, MLPredict, NNPredict, Project, Scan, UDFNode
from repro.ir import ops
from repro.ir.ops import graph_output
from repro.miniml import (
    DecisionTree,
    LogisticRegressionL1,
    Pipeline,
    RandomForest,
    TableFeaturizer,
)
from repro.onnxlite import InferenceSession
from repro.onnxlite.convert import pipeline_to_graph
from repro.oracle import assert_equivalent
from repro.runtime import ModelStore, force, measure, to_dataframe
from repro.runtime.codegen import _predict_dataframe, _predict_map_fn
from repro.runtime.executors import per_tuple_predict, raven_ext


@pytest.fixture(scope="module")
def hosp_small():
    return hospital.joined_frame(800, seed=21)


@pytest.fixture(scope="module")
def tree_pipe(hosp_small):
    return Pipeline(
        TableFeaturizer(numeric_cols=hospital.FEATURES, scale=False),
        DecisionTree(task="regression", max_depth=4, min_samples_leaf=10),
    ).fit(hosp_small[hospital.FEATURES], hosp_small["los"].to_numpy())


class TestCodegen:
    def test_scan_filter_project_oracle(self, spark):
        t = hospital.tables(300, seed=1)
        plan = Project(
            Filter(Scan("patient_info"), Cmp(">", Col("age"), Lit(40))),
            [("pid", Col("pid")), ("age", Col("age"))],
        )
        df = to_dataframe(plan, spark, {"patient_info": spark.createDataFrame(t["patient_info"])})
        assert_equivalent(
            df,
            "SELECT pid, age FROM patient_info WHERE age > 40",
            patient_info=t["patient_info"],
        )

    def test_join_same_key_single_column(self, spark):
        t = hospital.tables(200, seed=2)
        plan = Join(Scan("patient_info"), Scan("blood_tests"), "pid", "pid")
        df = to_dataframe(
            plan, spark,
            {k: spark.createDataFrame(v) for k, v in t.items()},
        )
        assert df.columns.count("pid") == 1
        assert df.count() == 200

    def test_mlpredict_codegen_matches_local(self, spark, hosp_small, tree_pipe):
        plan = MLPredict(Scan("joined"), "m", tree_pipe, "pred")
        df = to_dataframe(plan, spark, {"joined": spark.createDataFrame(hosp_small)})
        got = df.select("pid", "pred").toPandas().sort_values("pid")["pred"].to_numpy()
        want_df = hosp_small.sort_values("pid")
        want = tree_pipe.predict(want_df)
        np.testing.assert_allclose(got, want)

    def test_nnpredict_codegen_matches_pipeline(self, spark, fl_graph):
        fl, pipe, paths = fl_graph
        proba, label = (NNPredict(Scan("flights"), "fl", InferenceSession(paths[kind]).graph,
                                  pipe.featurizer, "p", kind=kind)
                        for kind in ("proba", "label"))
        full = spark.createDataFrame(fl)
        # 3 rows over 8 partitions, coalesced to one wave of tasks; empty
        # batches are covered by test_predict_map_fn_empty_batches
        tiny = spark.createDataFrame(fl.head(3)).repartition(8)
        for node, want_fn in [(proba, lambda d: pipe.predict_proba(d)[:, 1]),
                              (label, lambda d: pipe.predict(d).astype(float))]:
            for sdf, pdf in [(full, fl), (tiny, fl.head(3))]:
                df = to_dataframe(node, spark, {"flights": sdf})
                got = df.select("flight_id", "p").toPandas().sort_values("flight_id")["p"]
                want = want_fn(pdf.sort_values("flight_id"))
                np.testing.assert_allclose(got.to_numpy(), want)

    def test_predict_runs_one_wave_of_tasks(self, spark, fl_graph):
        """A predict and a black-box UDF each run one wave of Python
        tasks, whatever their input's partitioning."""
        fl, pipe, paths = fl_graph
        node = NNPredict(Scan("flights"), "fl", InferenceSession(paths["proba"]).graph,
                         pipe.featurizer, "p", kind="proba")
        udf = UDFNode(Scan("flights"),
                      lambda pdf: pdf.assign(p=pipe.predict_proba(pdf)[:, 1]))
        n = spark.sparkContext.defaultParallelism
        want = pipe.predict_proba(fl.sort_values("flight_id"))[:, 1]
        for plan in (node, udf):
            for parts, want_parts in [(2 * n, n), (1, 1)]:
                sdf = spark.createDataFrame(fl).repartition(parts)
                df = to_dataframe(plan, spark, {"flights": sdf})
                assert df.rdd.getNumPartitions() == want_parts
                got = df.select("flight_id", "p").toPandas().sort_values("flight_id")["p"]
                np.testing.assert_allclose(got.to_numpy(), want)

    def test_project_over_predict_returns_projected_columns(self, spark, fl_graph):
        fl, pipe, paths = fl_graph
        node = NNPredict(Scan("flights"), "fl", InferenceSession(paths["proba"]).graph,
                         pipe.featurizer, "p", kind="proba")
        plan = Project(node, [
            ("id", Col("flight_id")),
            ("p", Col("p")),
            ("late", Cmp(">", Col("p"), Lit(0.5))),
        ])
        tables = {"flights": spark.createDataFrame(fl)}
        df = to_dataframe(plan, spark, tables)
        assert df.columns == ["id", "p", "late"]
        # the mapInPandas under the Project returns only what it reads
        assert _predict_dataframe(node, spark, tables, {"flight_id", "p"}).columns == [
            "flight_id", "p"
        ]
        got = df.toPandas().sort_values("id")
        want = pipe.predict_proba(fl.sort_values("flight_id"))[:, 1]
        np.testing.assert_array_equal(got["id"], np.sort(fl["flight_id"].to_numpy()))
        np.testing.assert_allclose(got["p"].to_numpy(), want)
        np.testing.assert_array_equal(got["late"].to_numpy(), want > 0.5)

    def test_predict_map_fn_empty_batches(self, fl_graph):
        fl, pipe, paths = fl_graph
        node = NNPredict(Scan("flights"), "fl", InferenceSession(paths["proba"]).graph,
                         pipe.featurizer, "p", kind="proba")
        out = list(_predict_map_fn(node)(iter([fl.head(0).copy()])))
        assert len(out) == 1 and len(out[0]) == 0
        assert list(out[0].columns) == [*fl.columns, "p"]
        assert list(_predict_map_fn(node)(iter([]))) == []
        batch = fl.head(5).copy()
        (out,) = _predict_map_fn(node, ["origin"])(iter([batch]))
        assert list(out.columns) == [c for c in fl.columns if c != "origin"] + ["p"]
        np.testing.assert_allclose(out["p"], pipe.predict_proba(fl.head(5))[:, 1])

    def test_udf_codegen(self, spark, hosp_small):
        from repro.ir import UDFNode

        plan = UDFNode(
            Scan("joined"),
            fn=lambda pdf: pdf.assign(age2=pdf["age"] * 2),
            description="age2",
        )
        df = to_dataframe(plan, spark, {"joined": spark.createDataFrame(hosp_small)})
        out = df.select("pid", "age", "age2").toPandas()
        np.testing.assert_array_equal(out["age2"], out["age"] * 2)

    def test_udf_codegen_on_empty_input(self, spark):
        """Over a filter that matches no rows, a UDF
        compiles to zero rows with its output columns, typed as on a
        non-empty input (inference from an empty sample used to raise
        ``CANNOT_INFER_EMPTY_SCHEMA``)."""
        from repro.ir import UDFNode

        fl = flights.frame(200, seed=3)
        plan = UDFNode(
            Filter(Scan("fl"), Cmp("<", Col("distance"), Lit(-1.0))),
            fn=lambda pdf: pdf.assign(route=pdf["origin"] + "-" + pdf["dest"],
                                      d2=pdf["distance"] * 2),
            description="route",
        )
        tables = {"fl": spark.createDataFrame(fl)}
        df = to_dataframe(plan, spark, tables)
        assert df.columns == list(fl.columns) + ["route", "d2"]
        assert df.count() == 0
        full = to_dataframe(UDFNode(Scan("fl"), fn=plan.fn), spark, tables)
        assert df.schema.simpleString() == full.schema.simpleString()

    def test_udf_codegen_all_null_sample(self, spark):
        """A string column that is NULL in every sampled row
        keeps its type, and so does a UDF column copied from it (they
        were typed ``void``, and the first batch holding a string failed
        with ``Unsupported cast from string to null``)."""
        from repro.ir import UDFNode

        pdf = pd.DataFrame({"a": range(20), "s": [None] * 10 + ["x"] * 10})
        tables = {"t": spark.createDataFrame(pdf).coalesce(1)}
        plan = UDFNode(Scan("t"), fn=lambda p: p.assign(z=p["s"]), description="z")
        df = to_dataframe(plan, spark, tables)
        assert df.schema.simpleString() == "struct<a:bigint,s:string,z:string>"
        out = df.toPandas().sort_values("a")
        assert list(out["z"]) == [None] * 10 + ["x"] * 10

    def test_force_noop_sink(self, spark, hosp_small):
        df = spark.createDataFrame(hosp_small)
        force(df)  # must not raise

    def test_measure_warmup_and_runs(self):
        calls = []
        t = measure(lambda: calls.append(1), warmup=2, runs=3)
        assert len(calls) == 5
        assert len(t.times) == 3
        assert t.median >= 0


class TestModelStore:
    def test_pipeline_roundtrip(self, tmp_path, tree_pipe, hosp_small):
        store = ModelStore(str(tmp_path / "store"))
        store.save_pipeline("los", tree_pipe)
        loaded = store.load_pipeline("los")
        np.testing.assert_array_equal(loaded.predict(hosp_small), tree_pipe.predict(hosp_small))

    def test_versioning(self, tmp_path, tree_pipe):
        store = ModelStore(str(tmp_path / "store"))
        store.save_pipeline("m", tree_pipe)
        store.save_pipeline("m", tree_pipe)
        assert len(store.versions("m")) == 2
        assert store.versions("m")[-1]["version"] == 2

    def test_graph_model(self, tmp_path, tree_pipe, hosp_small):
        store = ModelStore(str(tmp_path / "store"))
        g = pipeline_to_graph(tree_pipe, "label")
        store.save_graph_model("los_nn", g)
        sess = InferenceSession(store.graph_path("los_nn"))
        out = sess.run(tree_pipe.featurizer.transform_codes(hosp_small))
        np.testing.assert_allclose(out["label"], tree_pipe.predict(hosp_small))

    def test_missing_model_raises(self, tmp_path):
        store = ModelStore(str(tmp_path / "store"))
        with pytest.raises(KeyError):
            store.load_pipeline("ghost")

    def test_kind_mismatch_raises(self, tmp_path, tree_pipe):
        store = ModelStore(str(tmp_path / "store"))
        store.save_pipeline("m", tree_pipe)
        with pytest.raises(TypeError):
            store.graph_path("m")


@pytest.fixture(scope="module")
def fl_graph(tmp_path_factory):
    """A featurize+forest flights pipeline compiled to one stored graph
    per kind it has: (frame, pipeline, {kind: graph path})."""
    fl = flights.frame(3000, seed=5)
    pipe = Pipeline(
        TableFeaturizer(numeric_cols=flights.NUMERIC, categorical_cols=flights.CATEGORICAL),
        RandomForest(n_trees=3, max_depth=3, seed=0),
    ).fit(fl, fl["delayed"].to_numpy())
    store = ModelStore(str(tmp_path_factory.mktemp("store")))
    paths = {}
    for kind in ("label", "proba"):
        store.save_graph_model(f"fl_{kind}", pipeline_to_graph(pipe, kind))
        paths[kind] = store.graph_path(f"fl_{kind}")
    return fl, pipe, paths


class TestExecutionModes:
    def test_cold_session_graph_output_matches_pipeline(self, fl_graph):
        fl, pipe, paths = fl_graph
        out = graph_output(InferenceSession(paths["proba"]).run, pipe.featurizer, fl, "proba")
        np.testing.assert_allclose(out, pipe.predict_proba(fl)[:, 1])

    def test_graph_output_chunks_concatenate(self, fl_graph, monkeypatch):
        fl, pipe, paths = fl_graph
        run = InferenceSession(paths["proba"]).run
        whole = graph_output(run, pipe.featurizer, fl, "proba")
        monkeypatch.setattr(ops, "GRAPH_CHUNK_ROWS", 1_000)  # 3000 rows → 3 chunks
        np.testing.assert_array_equal(graph_output(run, pipe.featurizer, fl, "proba"), whole)

    def test_raven_ext_matches(self, fl_graph):
        fl, pipe, paths = fl_graph
        out = raven_ext(fl.head(200), paths["proba"], pipe.featurizer, kind="proba")
        np.testing.assert_allclose(out, pipe.predict_proba(fl.head(200))[:, 1])

    def test_per_tuple_matches_batch(self, spark, hosp_small, tree_pipe):
        df = spark.createDataFrame(hosp_small.head(50))
        out = per_tuple_predict(df, tree_pipe, "pred")
        got = out.select("pid", "pred").toPandas().sort_values("pid")["pred"].to_numpy()
        want = tree_pipe.predict(hosp_small.head(50).sort_values("pid"))
        np.testing.assert_allclose(got, want)

    def test_label_kind_from_value_graph(self, fl_graph, tmp_path):
        fl, pipe, paths = fl_graph
        out = graph_output(InferenceSession(paths["label"]).run, pipe.featurizer, fl.head(100),
                           "label")
        want = pipe.predict(fl.head(100)).astype(float)
        np.testing.assert_allclose(out, want)
