"""Model store: models live *in the database* (§1–2).

A directory-backed catalog holding versioned model artifacts: pickled
miniml pipelines (the MLflow-style "model pipeline" with its
featurizer) and serialized onnxlite graphs. Deploying a new version is
an atomic catalog update — the repro stand-in for the paper's
transactional model updates.

Raven's own PREDICT does not load from the store at run time: the
model ships inside the task closure (``runtime.codegen``). Sessions
loaded by path are cached per (path, mtime) only by
``onnxlite.session.get_cached_session``, which T5's warm
standalone-engine column uses; a re-saved model is a new cache entry.
"""
from __future__ import annotations

import json
import os
import pickle
import tempfile
import time

from repro.onnxlite.graph import Graph
from repro.onnxlite.serialize import save_graph


class ModelStore:
    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._catalog_path = os.path.join(root, "catalog.json")
        if not os.path.exists(self._catalog_path):
            self._write_catalog({})

    # ------------------------------------------------------- catalog io
    def _read_catalog(self) -> dict:
        with open(self._catalog_path) as f:
            return json.load(f)

    def _write_catalog(self, cat: dict) -> None:
        # atomic replace: readers never see a torn catalog
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".json")
        with os.fdopen(fd, "w") as f:
            json.dump(cat, f, indent=1)
        os.replace(tmp, self._catalog_path)

    def _register(self, name: str, kind: str, path: str) -> int:
        cat = self._read_catalog()
        entry = cat.get(name, {"versions": []})
        version = len(entry["versions"]) + 1
        entry["versions"].append(
            {"version": version, "kind": kind, "path": path, "created_at": time.time()}
        )
        entry["kind"] = kind
        cat[name] = entry
        self._write_catalog(cat)
        return version

    def _entry(self, name: str) -> dict:
        cat = self._read_catalog()
        if name not in cat:
            raise KeyError(f"no such model {name!r}")
        return cat[name]["versions"][-1]

    # ------------------------------------------------------- pipelines
    def save_pipeline(self, name: str, pipeline) -> str:
        path = os.path.join(self.root, name, f"v{len(self.versions(name)) + 1}.pkl")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as f:
            pickle.dump(pipeline, f)
        self._register(name, "pipeline", path)
        return path

    def load_pipeline(self, name: str):
        e = self._entry(name)
        if e["kind"] != "pipeline":
            raise TypeError(f"{name!r} is a {e['kind']}, not a pipeline")
        with open(e["path"], "rb") as f:
            return pickle.load(f)

    # ---------------------------------------------------------- graphs
    def save_graph_model(self, name: str, graph: Graph) -> str:
        path = os.path.join(self.root, name, f"v{len(self.versions(name)) + 1}")
        save_graph(graph, path)
        self._register(name, "graph", path)
        return path

    def graph_path(self, name: str) -> str:
        e = self._entry(name)
        if e["kind"] != "graph":
            raise TypeError(f"{name!r} is a {e['kind']}, not a graph")
        return e["path"]

    def versions(self, name: str) -> list[dict]:
        cat = self._read_catalog()
        return cat.get(name, {}).get("versions", [])
