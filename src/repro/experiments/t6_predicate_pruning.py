"""T6 — predicate-based model pruning micro-benchmarks (§4.1 inline).

(a) Hospital tree + ``pregnant = 1``: prediction-time improvement of
the pruned tree on the rows that satisfy the predicate (paper: 29%
faster, right subtree eliminated).

(b) Flights logistic regression + an equality filter on the destination
airport (skewed destination distribution → different selectivities):
speedup of the folded model over the full model, per destination.
Paper: ~2.1× *regardless of the filter's selectivity* — the win is the
number of features dropped, not the rows removed.
"""
from __future__ import annotations

from repro.datasets import flights, hospital
from repro.experiments.common import flights_lr_pipeline, hospital_tree_pipeline
from repro.ir import Constraint
from repro.optimizer.pruning import prune_pipeline
from repro.runtime.timing import measure


def run_tree(n_infer: int = 1_000_000, n_train: int = 20_000, seed: int = 0,
             runs: int = 5) -> list[dict]:
    pipe = hospital_tree_pipeline(n_train=n_train, seed=seed)
    pruned, changed = prune_pipeline(pipe, {"pregnant": Constraint(eq=1)})
    data = hospital.joined_frame(n_infer, seed=seed + 29, with_label=False)
    data = data[data["pregnant"] == 1]
    # the paper's 29% is the model's *prediction time*: time scoring on
    # the already-featurized matrix (featurization is identical on both
    # sides and orthogonal to tree pruning)
    X_full = pipe.featurizer.transform(data)
    X_pruned = pruned.featurizer.transform(data)
    t_full, t_pruned = measure([lambda: pipe.model.predict(X_full),
                                lambda: pruned.model.predict(X_pruned)], runs)
    return [
        {
            "predicate": "pregnant = 1",
            "rows_scored": len(data),
            "nodes_before": pipe.model.n_nodes,
            "nodes_after": pruned.model.n_nodes,
            "depth_before": pipe.model.depth,
            "depth_after": pruned.model.depth,
            "full_s": t_full,
            "pruned_s": t_pruned,
            "improvement_pct": 100 * (1 - t_pruned.median / t_full.median),
        }
    ]


def run_categorical(n_infer: int = 1_000_000, n_train: int = 50_000, seed: int = 0,
                    runs: int = 3, dests: list[str] | None = None) -> list[dict]:
    """Selectivity sweep: skewed destinations give each airport a
    different row share; the folded model's speedup should be flat."""
    pipe = flights_lr_pipeline(n_train=n_train, alpha=0.0, seed=seed)
    data = flights.frame(n_infer, seed=seed + 31, dest_skew=1.2)
    rows = []
    for dest in dests or ["A00", "A03", "A10", "A30", "A70"]:
        sub = data[data["dest"] == dest]
        if len(sub) == 0:
            continue
        folded, changed = prune_pipeline(pipe, {"dest": Constraint(eq=dest)})
        t_full, t_fold = measure([lambda: pipe.predict_proba(sub)[:, 1],
                                  lambda: folded.predict_proba(sub)[:, 1]], runs)
        rows.append(
            {
                "filter": f"dest = '{dest}'",
                "selectivity_pct": 100 * len(sub) / len(data),
                "features_before": pipe.featurizer.n_features,
                "features_after": folded.featurizer.n_features,
                "full_s": t_full,
                "pruned_s": t_fold,
                "speedup": t_full.median / t_fold.median,
            }
        )
    return rows
