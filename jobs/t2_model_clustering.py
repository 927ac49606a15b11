"""T2 (Fig. 2b): model clustering — 700K flights + hospital contrast."""
from _session import get_spark  # noqa: F401
from repro.experiments import t2_model_clustering as t2
from repro.experiments.common import fmt_table

RUNS = 5

if __name__ == "__main__":
    print("## T2 — model clustering, flights (700K rows; "
          f"median (Q1–Q3) of {RUNS} alternating runs)")
    print(fmt_table(t2.run(n_infer=700_000, runs=RUNS)))
    print("\n## T2 — model clustering, hospital (no benefit expected; "
          f"median (Q1–Q3) of {RUNS} alternating runs)")
    print(fmt_table(t2.run_hospital(n_infer=300_000, runs=RUNS)))
