"""T7 (§5(v)): batch vs per-tuple inference."""
from _session import get_spark
from repro.experiments import t7_batch_inference as t7
from repro.experiments.common import fmt_table

RUNS = 3

if __name__ == "__main__":
    spark = get_spark("t7_batch_inference")
    print("## T7 — per-tuple UDF vs batched mapInPandas (50K rows; "
          f"median (Q1–Q3) of {RUNS} alternating runs)")
    print(fmt_table(t7.run(spark, n_infer=50_000, runs=RUNS)))
    spark.stop()
