"""T5 benchmark: the three integration modes of Fig. 3 at 10K and 100K
rows (featurize+RF pipeline compiled to a stored graph model)."""
import pytest

from repro.datasets import flights
from repro.experiments.t5_integration import raven_predict
from repro.ir.ops import graph_output
from repro.onnxlite import InferenceSession
from repro.onnxlite.convert import pipeline_to_graph
from repro.runtime.executors import raven_ext
from repro.runtime.model_store import ModelStore
from repro.runtime.timing import force


@pytest.fixture(scope="module")
def stored(fl_forest, tmp_path_factory):
    store = ModelStore(str(tmp_path_factory.mktemp("t5store")))
    store.save_graph_model("rf", pipeline_to_graph(fl_forest, "proba"))
    return fl_forest, store.graph_path("rf")


@pytest.mark.parametrize("n", [10_000, 100_000])
def test_ort_cold(benchmark, stored, n):
    pipe, path = stored
    pdf = flights.frame(n, seed=106)
    benchmark.pedantic(
        lambda: graph_output(InferenceSession(path).run, pipe.featurizer, pdf, "proba"),
        rounds=3, warmup_rounds=1,
    )


@pytest.mark.parametrize("n", [10_000, 100_000])
def test_raven_predict_warm(benchmark, spark, stored, n):
    pipe, _ = stored
    sdf = spark.createDataFrame(flights.frame(n, seed=106)).cache()
    sdf.count()
    out = raven_predict(spark, sdf, "rf", pipe)
    benchmark.pedantic(lambda: force(out), rounds=3, warmup_rounds=1)
    sdf.unpersist()


def test_raven_ext_subprocess(benchmark, stored):
    pipe, path = stored
    pdf = flights.frame(10_000, seed=106)
    benchmark.pedantic(
        lambda: raven_ext(pdf, path, pipe.featurizer, kind="proba"),
        rounds=3, warmup_rounds=1,
    )
