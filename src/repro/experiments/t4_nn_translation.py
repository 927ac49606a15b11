"""T4 — NN translation (paper Fig. 2d).

Protocol: a random-forest hospital-stay classifier scored two ways over
increasing dataset sizes: RF (classical per-tree traversal, the
scikit-learn stand-in) vs RF-NN (the same forest compiled to a
tensor-op graph — a batched tree traversal — executed by onnxlite). Paper: RF-NN ≈2× faster on CPU at 1K
tuples, the gap closing as size grows; the GPU rows (up to 15× at 1M)
are not reproducible here — no GPU in the container (see DESIGN.md).
"""
from __future__ import annotations

from repro.datasets import hospital
from repro.experiments.common import hospital_forest_pipeline
from repro.ir.ops import graph_output
from repro.onnxlite import InferenceSession
from repro.onnxlite.convert import pipeline_to_graph
from repro.runtime.timing import measure

SIZES = [1_000, 10_000, 100_000, 1_000_000]


PER_ROW_CAP = 20_000  # interpreted traversal is O(rows·trees·depth) in python


def run(sizes: list[int] | None = None, n_train: int = 20_000, seed: int = 0,
        n_trees: int = 10, runs: int = 5) -> list[dict]:
    """Columns: ``rf_vec_s`` (vectorized batch traversal — an idealized
    classical baseline with no framework overhead), ``rf_row_s``
    (per-sample interpreted traversal — the classical per-row execution
    style, capped at small sizes), ``rf_nn_cpu_s`` (the forest compiled
    to an onnxlite traversal graph), each in seconds per call, timed
    in turn by ``measure``. The true scikit-learn baseline sits between
    the two brackets; see EXPERIMENTS.md for the shape discussion."""
    pipe = hospital_forest_pipeline(n_train=n_train, seed=seed, n_trees=n_trees)
    sess = InferenceSession(pipeline_to_graph(pipe, "proba"))
    rows = []
    for n in sizes or SIZES:
        data = hospital.joined_frame(n, seed=seed + 17, with_label=False)
        forms = [lambda: pipe.predict_proba(data),
                 lambda: graph_output(sess.run, pipe.featurizer, data, "proba")]
        if n <= PER_ROW_CAP:
            X = pipe.featurizer.transform(data)
            forms.append(lambda: pipe.model.predict_proba_rows(X))
        rf, nn, *per_row = measure(forms, runs)
        rr = per_row[0] if per_row else None
        rows.append({"rows": n, "rf_vec_s": rf, "rf_nn_cpu_s": nn,
                     "speedup_nn_vs_vec": rf.median / nn.median, "rf_row_s": rr,
                     "speedup_nn_vs_row": rr.median / nn.median if rr else None,
                     "rf_nn_gpu_s": "n/a (no GPU)"})
    return rows
