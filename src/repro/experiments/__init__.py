"""Experiment harnesses, one per reproduced table (T1–T8).

Each module returns its table rows as a list of dicts from ``run``
(T2 adds ``run_hospital``; T6 has ``run_tree`` and ``run_categorical``
instead); T3, T5 and T7 take a SparkSession as their first argument.
``jobs/`` prints the rows at paper scale as the markdown of
EXPERIMENTS.md. A timed cell holds a ``runtime.timing.Timing``, which
``common.fmt_table`` renders as ``median (q1–q3)``. ``benchmarks/``
borrows models and plans from these modules but times its own
pytest-benchmark loop.
"""
