"""External-runtime worker: the process launched per query by
``raven_ext`` (the ``sp_execute_external_script`` stand-in).

Everything a fresh external runtime must pay happens here for real:
interpreter start, library imports, model load from disk, Parquet
deserialization of the inputs, and result serialization back.
"""
from __future__ import annotations

import pickle
import sys


def main(task_path: str, in_path: str, out_path: str) -> None:
    import numpy as np
    import pandas as pd

    from repro.ir.ops import graph_output
    from repro.onnxlite.session import InferenceSession

    with open(task_path, "rb") as f:
        task = pickle.load(f)
    pdf = pd.read_parquet(in_path)
    sess = InferenceSession(task["model_path"])
    np.save(out_path, graph_output(sess.run, task["featurizer"], pdf, task["kind"]))


if __name__ == "__main__":
    main(*sys.argv[1:4])
