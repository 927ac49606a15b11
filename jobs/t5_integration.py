"""T5 (Fig. 3): Raven vs standalone ORT vs Raven Ext."""
import tempfile

from _session import get_spark
from repro.experiments import t5_integration as t5
from repro.experiments.common import fmt_table

RUNS = 3

if __name__ == "__main__":
    spark = get_spark("t5_integration")
    with tempfile.TemporaryDirectory() as td:
        print("## T5 — integration modes (featurize+RF and featurize+MLP; "
              f"median (Q1–Q3) of {RUNS} alternating runs)")
        print(fmt_table(t5.run(spark, td, runs=RUNS)))
    spark.stop()
