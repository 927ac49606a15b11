"""T2 benchmark: clustered vs unclustered inference (Fig. 2b) at 200K
rows with the wide airport vocabulary."""
import pytest

from repro.datasets import flights
from repro.experiments.common import flights_lr_pipeline
from repro.experiments.t2_model_clustering import N_AIRPORTS_WIDE
from repro.optimizer.clustering import compile_clustered


@pytest.fixture(scope="module")
def setup():
    pipe = flights_lr_pipeline(n_train=30_000, alpha=0.0, seed=0,
                               n_airports=N_AIRPORTS_WIDE)
    data = flights.frame(200_000, seed=103, n_airports=N_AIRPORTS_WIDE)
    sample = flights.frame(30_000, seed=104, n_airports=N_AIRPORTS_WIDE)
    return pipe, data, sample


def test_unclustered(benchmark, setup):
    pipe, data, _ = setup
    benchmark.pedantic(lambda: pipe.predict_proba(data)[:, 1], rounds=5, warmup_rounds=1)


@pytest.mark.parametrize("k", [8, 32])
def test_clustered(benchmark, setup, k):
    pipe, data, sample = setup
    cm = compile_clustered(pipe, sample, k=k, cluster_col="dest", seed=0)
    benchmark.extra_info["avg_features"] = cm.avg_features()
    benchmark.pedantic(lambda: cm.predict(data, "proba"), rounds=5, warmup_rounds=1)
