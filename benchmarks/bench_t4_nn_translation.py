"""T4 benchmark: RF vs RF-NN, the forest as an onnxlite graph (Fig. 2d),
at 10K and 200K rows (CPU; GPU rows are not reproducible here)."""
import pytest

from repro.datasets import hospital
from repro.ir.ops import graph_output
from repro.onnxlite import InferenceSession
from repro.onnxlite.convert import pipeline_to_graph


@pytest.fixture(scope="module")
def sess(hosp_forest):
    return InferenceSession(pipeline_to_graph(hosp_forest, "proba"))


@pytest.mark.parametrize("n", [10_000, 200_000])
def test_rf_vectorized(benchmark, hosp_forest, n):
    data = hospital.joined_frame(n, seed=105, with_label=False)
    benchmark.pedantic(lambda: hosp_forest.predict_proba(data), rounds=5, warmup_rounds=1)


@pytest.mark.parametrize("n", [10_000, 200_000])
def test_rf_nn_cpu(benchmark, hosp_forest, sess, n):
    data = hospital.joined_frame(n, seed=105, with_label=False)
    benchmark.pedantic(
        lambda: graph_output(sess.run, hosp_forest.featurizer, data, "proba"),
        rounds=5, warmup_rounds=1,
    )


def test_rf_per_row_interpreted(benchmark, hosp_forest):
    data = hospital.joined_frame(2_000, seed=105, with_label=False)
    X = hosp_forest.featurizer.transform(data)
    benchmark.pedantic(lambda: hosp_forest.model.predict_proba_rows(X), rounds=2)
