"""T1 (Fig. 2a): model-projection pushdown — full-scale sweep."""
from _session import get_spark  # noqa: F401  (path setup; T1 is driver-local)
from repro.experiments import t1_projection_pushdown as t1
from repro.experiments.common import fmt_table

RUNS = 5

if __name__ == "__main__":
    print("## T1 — L1 sweep (sparsity vs AUC)")
    print(fmt_table(t1.train_sweep()))
    print("\n## T1 — inference time with/without model-projection pushdown (1M rows; "
          f"median (Q1–Q3) of {RUNS} alternating runs)")
    print(fmt_table(t1.run(n_infer=1_000_000, runs=RUNS)))
