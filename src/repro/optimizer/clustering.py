"""Model clustering (§4.1 / Fig. 2b): cluster historical data offline,
precompile a specialized model per cluster, route rows cheaply at
inference time.

Following the paper's framing ("cluster the data in a way that each
cluster has specific values for some features"), we k-means the sample
in feature space, then assign each *category* of a chosen categorical
column to the cluster where it predominantly lands. The router is then
a dictionary lookup on that column — O(1) per row, no featurization —
and each cluster's model drops every one-hot feature for categories
that never occur in the cluster (their weights can't fire).

Compile time (the paper reports it as negligible) and clustering time
(0.4–42 s in the paper) are both returned so T2 can report them.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.ir.ops import ClusteredPredict, model_output
from repro.miniml.kmeans import KMeans
from repro.miniml.pipeline import Pipeline
from repro.optimizer.projection import drop_linear_features


@dataclass
class ClusteredModel:
    """Offline artifact: category→cluster routing plus per-cluster
    specialized pipelines (and the original as fallback)."""

    cluster_col: str
    category_to_cluster: dict
    pipelines: list  # per-cluster Pipeline
    fallback: Pipeline
    cluster_seconds: float
    compile_seconds: float

    def router(self, pdf: pd.DataFrame) -> np.ndarray:
        return (
            pdf[self.cluster_col]
            .map(self.category_to_cluster)
            .fillna(-1)
            .to_numpy(dtype=np.int64)
        )

    def _remap(self, pipe: Pipeline, col: str) -> np.ndarray:
        """Full-category-space codes → the cluster model's local one-hot
        positions (−1 = category absent from this cluster's model). A
        trailing −1 sentinel absorbs unseen-category codes (−1 input
        indexes the last slot)."""
        key = (id(pipe), col)
        cache = self.__dict__.setdefault("_remap_cache", {})
        if key not in cache:
            full = self.fallback.featurizer.encoders[col].categories_
            local = {v: i for i, v in enumerate(pipe.featurizer.encoders[col].categories_)} \
                if col in pipe.featurizer.encoders else {}
            remap = np.full(len(full) + 1, -1, dtype=np.int64)
            for i, v in enumerate(full):
                remap[i] = local.get(v, -1)
            cache[key] = remap
        return cache[key]

    @property
    def input_cols(self) -> list[str]:
        return list(self.fallback.input_cols)

    def predict(self, pdf: pd.DataFrame, kind: str) -> np.ndarray:
        """Clustered scoring, with ``pipeline_output``'s contract. The
        batch's feeds (raw numeric block, category codes) are computed
        once; each cluster then builds its *narrower* dense matrix from
        them through ``TableFeaturizer.dense``, its codes remapped to
        the cluster model's categories, and runs the same model the
        baseline runs — the saving is exactly the dropped feature
        columns, with no duplicated pandas work. A row whose cluster
        column is NULL or unseen (cluster id −1) scores with the
        fallback pipeline."""
        feat0 = self.fallback.featurizer
        codes = feat0.transform_codes(pdf)
        cids = self.router(pdf)
        out = np.empty(len(pdf), dtype=np.float64)
        for cid in np.unique(cids):
            idx = np.nonzero(cids == cid)[0]
            pipe = self.fallback if cid < 0 else self.pipelines[int(cid)]
            f = pipe.featurizer
            feeds = {f"cat_{c}": self._remap(pipe, c)[codes[f"cat_{c}"][idx]]
                     for c in f.categorical_cols}
            if f.numeric_cols:
                cols = [feat0.numeric_cols.index(c) for c in f.numeric_cols]
                feeds["num"] = codes["num"][np.ix_(idx, cols)]
            out[idx] = model_output(pipe.model, f.dense(feeds, len(idx)), kind)
        return out

    def avg_features(self) -> float:
        return float(np.mean([p.featurizer.n_features for p in self.pipelines]))


def compile_clustered(
    pipe: Pipeline, sample: pd.DataFrame, k: int, cluster_col: str, seed: int = 0
) -> ClusteredModel:
    """Build the clustered artifact from a linear-model pipeline and a
    historical sample."""
    feat = pipe.featurizer
    if cluster_col not in feat.categorical_cols:
        raise KeyError(f"{cluster_col!r} is not a categorical input of the model")

    t0 = time.perf_counter()
    X = feat.transform(sample)
    km = KMeans(k=k, seed=seed).fit(X)
    labels = km.predict(X)
    cluster_seconds = time.perf_counter() - t0

    t1 = time.perf_counter()
    cats = feat.encoders[cluster_col].categories_
    values = sample[cluster_col].to_numpy()
    category_to_cluster: dict = {}
    for cat in cats:
        mask = values == cat
        if mask.any():
            category_to_cluster[cat] = int(np.bincount(labels[mask], minlength=k).argmax())
        else:
            category_to_cluster[cat] = 0

    pipelines: list[Pipeline] = []
    for cid in range(max(k, 1)):
        present = {c for c, cl in category_to_cluster.items() if cl == cid}
        absent = {f"{cluster_col}={c}" for c in cats if c not in present}
        pipelines.append(drop_linear_features(pipe, absent) if absent else pipe)
    compile_seconds = time.perf_counter() - t1
    return ClusteredModel(
        cluster_col=cluster_col,
        category_to_cluster=category_to_cluster,
        pipelines=pipelines,
        fallback=pipe,
        cluster_seconds=cluster_seconds,
        compile_seconds=compile_seconds,
    )


def to_clustered_predict(node, clustered: ClusteredModel) -> ClusteredPredict:
    """IR form: replace an MLPredict with the clustered execution node."""
    return ClusteredPredict(
        child=node.child,
        model_name=f"{node.model_name}_clustered",
        clustered=clustered,
        output_col=node.output_col,
        kind=node.kind,
    )
