"""Correctness gate, run in set-up before anything is timed; it doubles as the
warm-up.

Every query form's optimized result is compared with the result of its
unoptimized plan, after the DuckDB oracle's canonicalisation (sorted
columns and rows, floats rounded to 6 decimals). On ``los-join`` the
relational skeleton of each form (the joins and base-table filter,
without the model) is also checked against DuckDB. A form that fails
counts as failed on every timed execution.
"""
from __future__ import annotations

import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor

import pandas as pd

from repro.ir import walk
from repro.ir.ops import ClusteredPredict, MLPredict, NNPredict
from repro.oracle import _canon, assert_equivalent

PREDICTS = (MLPredict, NNPredict, ClusteredPredict)

# los-join form -> WHERE clause of its relational skeleton (joins and
# base-table filter, no model), run through Raven and through DuckDB
_SKELETONS = {
    "fig1": "WHERE pregnant = 1",
    "nofilter": "",
}
_RAVEN_SKELETON = (
    "SELECT pid, age FROM patient_info JOIN blood_tests ON pid = pid "
    "JOIN prenatal_tests ON pid = pid {where}"
)
_DUCKDB_SKELETON = (
    "SELECT patient_info.pid AS pid, age FROM patient_info "
    "JOIN blood_tests ON patient_info.pid = blood_tests.pid "
    "JOIN prenatal_tests ON patient_info.pid = prenatal_tests.pid {where}"
)


def predict_node(plan):
    return next(n for n in walk(plan) if isinstance(n, PREDICTS))


def _same(got: pd.DataFrame, ref: pd.DataFrame) -> None:
    if sorted(got.columns) != sorted(ref.columns):
        raise AssertionError(f"columns {sorted(got.columns)} != {sorted(ref.columns)}")
    pd.testing.assert_frame_equal(_canon(got), _canon(ref), check_dtype=False)


def gate(workload: str, setup, threads: int) -> tuple[set[str], float]:
    """Check every query form. Returns the names of the forms that
    failed, and the wall time of the first runs of the optimized forms
    and their references, collected on ``threads`` threads: the gate is
    the workload's warm-up."""
    failed: set[str] = set()

    def fail(name: str) -> None:  # a wrong or failing form is counted, never dropped
        print(f"perfbench: query {name} failed the correctness gate", file=sys.stderr)
        traceback.print_exc()
        failed.add(name)

    t0 = time.perf_counter()
    frames = {}
    for q in setup.queries:
        try:
            frames[q.name] = (q.run(), q.reference())
        except Exception:
            fail(q.name)
    with ThreadPoolExecutor(threads) as pool:
        futures = {name: [pool.submit(df.toPandas) for df in pair]
                   for name, pair in frames.items()}
        results = {}
        for name, (got, ref) in futures.items():
            try:
                results[name] = (got.result(), ref.result())
            except Exception:
                fail(name)
    first_runs_s = time.perf_counter() - t0

    for name, (got, ref) in results.items():
        try:
            _same(got, ref)
        except AssertionError:
            fail(name)
    if workload == "los-join":
        for name, where in _SKELETONS.items():
            try:
                assert_equivalent(setup.raven.run(_RAVEN_SKELETON.format(where=where)),
                                  _DUCKDB_SKELETON.format(where=where), **setup.tables)
            except Exception:
                fail(name)
    return failed, first_runs_s
