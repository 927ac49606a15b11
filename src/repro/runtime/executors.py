"""Execution modes of Fig. 3 that are not Raven's own PREDICT, plus
the per-tuple baseline of §5(v).

In-process PREDICT is the plan itself (``Raven.run``): ``runtime.codegen``
inlines a tree, forest or linear-model predict as a SQL expression and
scores every other predict node with ``mapInPandas``. The standalone engine
is one call of the graph-form output contract,
``ir.ops.graph_output(InferenceSession(path).run, ...)`` over a graph
compiled for the predict's kind, whose output head emits the output.

* ``raven_ext`` — ``sp_execute_external_script``: a fresh external
  Python runtime per query; data crosses the process boundary via
  Parquet files. The interpreter/start-up cost is the paper's ~0.5 s
  constant overhead, and it is real here, not simulated.
* ``per_tuple_predict`` — a scalar python UDF that featurizes and
  scores one row at a time (the 10× batch-inference comparison).
"""
from __future__ import annotations

import os
import pickle
import subprocess
import sys
import tempfile

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F
from pyspark.sql.types import DoubleType


def raven_ext(
    pdf: pd.DataFrame, model_path: str, featurizer, kind: str = "proba",
) -> np.ndarray:
    """Out-of-process external-script run: fresh interpreter, data via
    Parquet over the process boundary (the Fig. 3 "Raven Ext" bars).
    ``model_path`` holds a graph compiled for ``kind``."""
    with tempfile.TemporaryDirectory() as td:
        in_path = os.path.join(td, "in.parquet")
        out_path = os.path.join(td, "out.npy")
        task_path = os.path.join(td, "task.pkl")
        pdf.to_parquet(in_path)
        with open(task_path, "wb") as f:
            pickle.dump(
                {"model_path": model_path, "featurizer": featurizer, "kind": kind}, f
            )
        subprocess.run(
            [sys.executable, "-m", "repro.runtime.ext_worker",
             task_path, in_path, out_path],
            check=True,
        )
        return np.load(out_path)


def per_tuple_predict(
    df: DataFrame, pipeline, output_col: str = "prediction"
) -> DataFrame:
    """One model invocation per tuple via a scalar UDF — the baseline
    the paper beat by ~an order of magnitude with batch inference."""
    cols = pipeline.input_cols

    @F.udf(returnType=DoubleType())
    def predict_one(row):
        return float(pipeline.predict_row(row.asDict()))

    return df.withColumn(output_col, predict_one(F.struct(*cols)))
