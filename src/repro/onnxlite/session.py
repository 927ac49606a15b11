"""Inference sessions and the process-wide session cache.

``InferenceSession(path)`` mirrors ORT's API shape: construction loads
and optimizes the model (the cold cost); ``run`` executes it on a batch.
``get_cached_session`` is the in-DB behaviour the paper highlights in
Fig. 3(ii): SQL Server caches models and inference sessions across
queries, so warm queries skip the load entirely. The cache is per
process and invalidated by file mtime (a model update is a new
version); T5 uses it for its warm standalone-engine column.

Raven's own PREDICT loads from no path: the Spark codegen ships the
compiled graph in the task closure, which measures cheaper per task
than a cold session load (figures in ``repro.runtime.codegen``).
"""
from __future__ import annotations

import os
import threading

import numpy as np

from repro.onnxlite.graph import Graph
from repro.onnxlite.optimizer import optimize
from repro.onnxlite.serialize import load_graph


class InferenceSession:
    """Load a model directory and expose ``run(feeds)``."""

    def __init__(self, path_or_graph: str | Graph):
        if isinstance(path_or_graph, Graph):
            g = path_or_graph
        else:
            g = load_graph(path_or_graph)
        self.graph = optimize(g)

    @property
    def input_names(self) -> list[str]:
        return list(self.graph.inputs)

    def run(self, feeds: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        return self.graph.run(feeds)


_CACHE: dict[tuple[str, float], InferenceSession] = {}
_LOCK = threading.Lock()


def get_cached_session(path: str) -> InferenceSession:
    """Process-wide session cache keyed by (realpath, mtime of
    graph.json) — a re-saved model is a new cache entry."""
    real = os.path.realpath(path)
    key = (real, os.path.getmtime(os.path.join(real, "graph.json")))
    with _LOCK:
        sess = _CACHE.get(key)
        if sess is None:
            sess = InferenceSession(real)
            _CACHE[key] = sess
        return sess


def clear_session_cache() -> None:
    with _LOCK:
        _CACHE.clear()
