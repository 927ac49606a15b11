"""T3 (Fig. 2c): model inlining — 300K and 1M hospital rows."""
from _session import get_spark
from repro.experiments import t3_model_inlining as t3
from repro.experiments.common import fmt_table

RUNS = 3

if __name__ == "__main__":
    spark = get_spark("t3_model_inlining")
    print("## T3 — model inlining (300K rows, paper scale; "
          f"median (Q1–Q3) of {RUNS} alternating runs)")
    print(fmt_table(t3.run(spark, n_infer=300_000, runs=RUNS)))
    print(f"\n## T3 — model inlining (1M rows; median (Q1–Q3) of {RUNS} alternating runs)")
    print(fmt_table(t3.run(spark, n_infer=1_000_000, runs=RUNS)))
    spark.stop()
