"""Measurement harness.

Paper methodology (§4): "Numbers are averages over multiple warm runs,
and for each run we count the time it takes to load the model, perform
the optimization, read the data, and perform inference over them."
``measure`` mirrors that: warmup runs excluded, then the median of
timed runs; what each run *includes* (cold model load vs cached
session) is decided by the executor being measured.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from pyspark.sql import DataFrame


def force(df: DataFrame) -> None:
    """Fully execute a DataFrame without driver-side collection (noop
    datasource sink: every row is computed and discarded)."""
    df.write.format("noop").mode("overwrite").save()


@dataclass
class Timing:
    times: list[float] = field(default_factory=list)

    @property
    def median(self) -> float:
        s = sorted(self.times)
        n = len(s)
        return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


def measure(fn: Callable[[], object], warmup: int = 1, runs: int = 3) -> Timing:
    """Run ``fn`` ``warmup`` untimed times, then ``runs`` timed times."""
    for _ in range(warmup):
        fn()
    t = Timing()
    for _ in range(runs):
        t0 = time.perf_counter()
        fn()
        t.times.append(time.perf_counter() - t0)
    return t
