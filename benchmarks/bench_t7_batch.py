"""T7 benchmark: per-tuple UDF vs batched mapInPandas inference (§5(v)).
Per-tuple runs at 5K rows (it is the slow path being demonstrated);
batch at 5K and 50K."""
import pytest

from repro.datasets import hospital
from repro.ir import MLPredict, Scan
from repro.runtime.codegen import map_in_pandas
from repro.runtime.executors import per_tuple_predict
from repro.runtime.timing import force


@pytest.fixture(scope="module")
def sdf_small(spark):
    df = spark.createDataFrame(
        hospital.joined_frame(5_000, seed=108, with_label=False)
    ).cache()
    df.count()
    yield df
    df.unpersist()


def test_per_tuple_udf(benchmark, spark, sdf_small, hosp_tree):
    out = per_tuple_predict(sdf_small, hosp_tree, "pred")
    benchmark.pedantic(lambda: force(out), rounds=3, warmup_rounds=1)


def test_batched_mapinpandas(benchmark, spark, sdf_small, hosp_tree):
    out = map_in_pandas(MLPredict(Scan("t"), "m", hosp_tree, "pred"), sdf_small)
    benchmark.pedantic(lambda: force(out), rounds=3, warmup_rounds=1)
