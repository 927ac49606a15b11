"""Featurizers: one-hot encoding, standard scaling, and the table-level
``TableFeaturizer`` that pipelines use.

``TableFeaturizer`` keeps an explicit *feature spec* — an ordered list of
``("num", col)`` / ``("cat", col, category)`` entries — so the optimizer
can reason about which model-feature corresponds to which input column.
That mapping is what makes model-projection pushdown (drop zero-weight
features → drop input columns → drop joins) and predicate-based
categorical pruning (equality filter → fold a one-hot block into the
intercept) expressible as IR rewrites.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np
import pandas as pd


# Doubles as integers in the same order (-0.0 and 0.0 both map to 0):
# adjacent keys are adjacent doubles, so ``raw_split`` can bisect them.
_SIGN = 1 << 63
_KEY_INF = 0x7FF0_0000_0000_0000


def _key(x: float) -> int:
    b = struct.unpack("<Q", struct.pack("<d", x))[0]
    return b if b < _SIGN else -(b - _SIGN)


def _double(k: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", k if k >= 0 else _SIGN - k))[0]


@dataclass
class OneHotEncoder:
    """The closed category set of a single column and its integer
    codes; ``TableFeaturizer.dense`` scatters the codes into one-hot
    columns."""

    categories_: list = field(default_factory=list)

    def fit(self, values) -> "OneHotEncoder":
        self.categories_ = sorted(pd.unique(pd.Series(values)).tolist())
        return self

    def codes(self, values) -> np.ndarray:
        """Integer codes (−1 for unseen categories → all-zero row)."""
        cat = pd.Categorical(pd.Series(values), categories=self.categories_)
        return np.asarray(cat.codes, dtype=np.int64)


@dataclass(eq=False)
class StandardScaler:
    mean_: np.ndarray = field(default_factory=lambda: np.zeros(0))
    scale_: np.ndarray = field(default_factory=lambda: np.ones(0))

    def fit(self, X: np.ndarray) -> "StandardScaler":
        X = np.asarray(X, dtype=np.float64)
        self.mean_ = X.mean(axis=0)
        std = X.std(axis=0)
        self.scale_ = np.where(std > 1e-12, std, 1.0)
        return self

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=np.float64) - self.mean_) / self.scale_


@dataclass(eq=False)
class TableFeaturizer:
    """DataFrame → dense feature matrix with named features.

    Numeric columns are optionally standardized; categorical columns are
    one-hot encoded with feature names ``col=value``. The feature order
    is: numeric columns first (input order), then one-hot blocks.
    """

    numeric_cols: list[str] = field(default_factory=list)
    categorical_cols: list[str] = field(default_factory=list)
    scale: bool = True

    scaler: StandardScaler | None = None
    encoders: dict[str, OneHotEncoder] = field(default_factory=dict)

    def fit(self, df: pd.DataFrame) -> "TableFeaturizer":
        if self.numeric_cols and self.scale:
            self.scaler = StandardScaler().fit(df[self.numeric_cols].to_numpy())
        self.encoders = {
            c: OneHotEncoder().fit(df[c]) for c in self.categorical_cols
        }
        return self

    # ------------------------------------------------------------ info
    @property
    def feature_specs(self) -> list[tuple]:
        specs: list[tuple] = [("num", c) for c in self.numeric_cols]
        for c in self.categorical_cols:
            specs.extend(("cat", c, v) for v in self.encoders[c].categories_)
        return specs

    @property
    def feature_names(self) -> list[str]:
        return [
            s[1] if s[0] == "num" else f"{s[1]}={s[2]}" for s in self.feature_specs
        ]

    @property
    def blocks(self) -> list[tuple[str, int]]:
        """The feature matrix's column blocks in order, each as its
        ``transform_codes`` feed and width: ``num``, the numeric block,
        then one ``cat_<col>`` one-hot block per categorical column,
        whose feed holds the category codes."""
        blocks = [("num", len(self.numeric_cols))] if self.numeric_cols else []
        return blocks + [
            (f"cat_{c}", len(self.encoders[c].categories_)) for c in self.categorical_cols
        ]

    @property
    def n_features(self) -> int:
        return sum(width for _, width in self.blocks)

    @property
    def input_cols(self) -> list[str]:
        return [*self.numeric_cols, *self.categorical_cols]

    # ------------------------------------------------------- transform
    def transform(self, df: pd.DataFrame) -> np.ndarray:
        """The dense feature matrix of ``df``."""
        return self.dense(self.transform_codes(df), len(df))

    def dense(self, feeds: dict[str, np.ndarray], n_rows: int) -> np.ndarray:
        """The dense feature matrix of ``n_rows`` rows from
        ``transform_codes``-shaped feeds: the scaled ``num`` block, then
        each ``cat_<col>`` code vector scattered into its one-hot block,
        where code −1 (an unseen or NULL category) gives a zero row.
        Every block is written straight into one allocation (no hstack
        copy — inference cost tracks feature width, which is what the
        projection/clustering optimizations shrink)."""
        out = np.zeros((n_rows, self.n_features))
        col = 0
        for feed, width in self.blocks:
            x = feeds[feed]
            if feed == "num":
                out[:, :width] = self.scaler.transform(x) if self.scaler else x
            else:
                valid = x >= 0
                out[np.nonzero(valid)[0], col + x[valid]] = 1.0
            col += width
        return out

    def raw_split(self, feature_idx: int, t: float) -> tuple[str, float]:
        """The split ``z <= t`` on numeric feature ``feature_idx`` as
        ``col <= x`` over its raw column, exactly: ``x`` is the largest
        double whose feature value, as ``transform`` computes it, is at
        most ``t``. ``(x - mean) / scale`` rounds correctly, so it is
        monotone in ``x`` and those doubles are a down-set. The search
        brackets the boundary by doubling steps from ``t·scale + mean``
        over the doubles in order, then bisects the bracket: at most
        about 128 evaluations, even where the feature value is flat
        over a wide range of doubles (``|x|`` far below ``|mean|``).
        An unscaled feature returns ``t``. Raises ValueError for a
        one-hot feature, which has no such form."""
        spec = self.feature_specs[feature_idx]
        if spec[0] != "num":
            raise ValueError(f"no raw-column split on categorical feature {spec}")
        col = spec[1]
        if self.scaler is None:
            return col, t
        j = self.numeric_cols.index(col)
        m, s = float(self.scaler.mean_[j]), float(self.scaler.scale_[j])

        def above(k: int) -> bool:
            return (_double(k) - m) / s > t

        lo = hi = _key(t * s + m)
        step = 1
        while hi < _KEY_INF and not above(hi):
            lo, hi, step = hi, min(hi + step, _KEY_INF), 2 * step
        while lo > -_KEY_INF and above(lo):
            hi, lo, step = lo, max(lo - step, -_KEY_INF), 2 * step
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if above(mid):
                hi = mid
            else:
                lo = mid
        return col, _double(lo)

    def transform_codes(self, df: pd.DataFrame) -> dict[str, np.ndarray]:
        """The feeds of ``dense`` and of the NN-graph form of this
        featurizer, one per block: the *raw* numeric block ``num`` (the
        consumer scales it) plus one int-code vector ``cat_<col>`` per
        categorical column."""
        out: dict[str, np.ndarray] = {}
        if self.numeric_cols:
            out["num"] = df[self.numeric_cols].to_numpy(dtype=np.float64)
        for c in self.categorical_cols:
            out[f"cat_{c}"] = self.encoders[c].codes(df[c])
        return out

    # ------------------------------------------- optimizer-facing edits
    def drop_features(self, names: set[str]) -> tuple["TableFeaturizer", np.ndarray]:
        """Remove features by name. Returns (new featurizer, kept index
        array into the *old* feature order) so callers can slice model
        weights to match. Dropping every category of a categorical
        column (or a numeric column) removes the input column itself."""
        keep_idx = [i for i, n in enumerate(self.feature_names) if n not in names]
        specs = self.feature_specs
        kept = [specs[i] for i in keep_idx]

        new = TableFeaturizer(scale=self.scale)
        new.numeric_cols = [s[1] for s in kept if s[0] == "num"]
        if new.numeric_cols and self.scaler is not None:
            sub = [self.numeric_cols.index(c) for c in new.numeric_cols]
            sc = StandardScaler()
            sc.mean_ = self.scaler.mean_[sub]
            sc.scale_ = self.scaler.scale_[sub]
            new.scaler = sc
        for c in self.categorical_cols:
            cats = [s[2] for s in kept if s[0] == "cat" and s[1] == c]
            if cats:
                new.categorical_cols.append(c)
                enc = OneHotEncoder()
                enc.categories_ = cats
                new.encoders[c] = enc
        return new, np.array(keep_idx, dtype=np.int64)
