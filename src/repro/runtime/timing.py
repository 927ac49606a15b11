"""Measurement harness.

Paper methodology (§4): "Numbers are averages over multiple warm runs,
and for each run we count the time it takes to load the model, perform
the optimization, read the data, and perform inference over them."
``measure`` times the forms one table row compares, in turn within
each round, so drift on the machine falls on every form alike. What a
run *includes* (cold model load vs cached session) is decided by the
form being measured.
"""
from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from pyspark.sql import DataFrame

# A form's timed loop repeats its call until the loop lasts this long,
# so a 1 ms call is not timed singly: a 1K-row T4 call takes about 2 ms,
# and timed singly its NN vs vectorized ratio read 0.91× to 2.28×
# across runs of the job.
MIN_RUN_S = 0.05


def force(df: DataFrame) -> None:
    """Fully execute a DataFrame without driver-side collection (noop
    datasource sink: every row is computed and discarded)."""
    df.write.format("noop").mode("overwrite").save()


@dataclass
class Timing:
    """Seconds per call of one form, one entry per timed run."""

    times: list[float] = field(default_factory=list)

    @property
    def median(self) -> float:
        return statistics.median(self.times)

    @property
    def quartiles(self) -> tuple[float, float]:
        """Q1 and Q3, both the median when there is one run."""
        if len(self.times) < 2:
            return self.median, self.median
        q1, _, q3 = statistics.quantiles(self.times, n=4, method="inclusive")
        return q1, q3


def measure(forms: Sequence[Callable[[], object]], runs: int) -> list[Timing]:
    """One ``Timing`` per form. A warm-up round calls each form once
    and sets its loop length: as many calls as fill ``MIN_RUN_S``.
    Then ``runs`` rounds each run every form's loop in turn and record
    its seconds per call."""
    loops = []
    for fn in forms:
        t0 = time.perf_counter()
        fn()
        loops.append(max(1, math.ceil(MIN_RUN_S / (time.perf_counter() - t0))))
    timings = [Timing() for _ in forms]
    for _ in range(runs):
        for fn, calls, timing in zip(forms, loops, timings):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            timing.times.append((time.perf_counter() - t0) / calls)
    return timings
