"""Inference-query execution (§5): IR→Spark code generation (the
in-process PREDICT of Fig. 3), the model store, and the out-of-process
external runtime and per-tuple baselines (``executors``)."""
from repro.runtime.codegen import to_dataframe
from repro.runtime.model_store import ModelStore
from repro.runtime.timing import force, measure

__all__ = ["to_dataframe", "ModelStore", "force", "measure"]
