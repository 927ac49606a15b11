"""T4 (Fig. 2d): NN translation — RF vs RF-NN (the forest as an onnxlite graph)."""
from _session import get_spark  # noqa: F401
from repro.experiments import t4_nn_translation as t4
from repro.experiments.common import fmt_table

RUNS = 5

if __name__ == "__main__":
    print("## T4 — RF vs RF-NN (CPU; GPU rows not reproducible; "
          f"median (Q1–Q3) of {RUNS} alternating runs)")
    print(fmt_table(t4.run(runs=RUNS)))
