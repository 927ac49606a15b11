"""T6 (§4.1 inline): predicate-based model pruning micro-benchmarks."""
from _session import get_spark  # noqa: F401
from repro.experiments import t6_predicate_pruning as t6
from repro.experiments.common import fmt_table

RUNS = 5

if __name__ == "__main__":
    print("## T6a — tree pruning under pregnant=1 (paper: 29% faster; "
          f"median (Q1–Q3) of {RUNS} alternating runs)")
    print(fmt_table(t6.run_tree(n_infer=1_000_000, runs=RUNS)))
    print("\n## T6b — categorical predicate pruning vs selectivity (paper: ~2.1x, flat; "
          f"median (Q1–Q3) of {RUNS} alternating runs)")
    print(fmt_table(t6.run_categorical(n_infer=1_000_000, runs=RUNS)))
