"""Runtime Code Generator: compile an optimized Raven IR plan to a
Spark DataFrame.

Relational nodes become DataFrame operations (so Catalyst sees and
further optimizes them — the paper's generated SQL plays the same
role). Each predict runs in the physical form that
``optimizer.inlining.predict_sql`` picks, by model type:

* An ``MLPredict`` of a decision tree, a random forest, or a linear or
  logistic model has an SQL form (§4.2): a select of its SQL
  expression over the child. Catalyst compiles it into the scan's
  stage; no Python task, no Arrow round trip.
* Every other predict — MLP graphs (``NNPredict``), ``ClusteredPredict``,
  models past the SQL size cap — becomes one ``mapInPandas`` whose
  batches are scored by the node's own ``predict_pandas``: the
  DataFrame→DataFrame physical-operator pattern (a true JVM operator is
  out of scope, see DESIGN.md). Spark parallelizes scan+predict exactly
  like SQL Server does for PREDICT in Fig. 3(iii).

``tools/inline_probe.py`` measured the choice (250K rows, ``local[4]``
on a 4-vCPU Xeon, median of 5 alternating runs, Python / graph /
inlined): the Fig. 1 depth-6 tree 0.78 / 0.80 / 0.25 s; the flights LR
with 204 one-hot weights 0.80 / 0.79 / 0.29 s as map lookups (1.54 s
as a CASE term per weight). A graph pays the same Python wave as the pipeline it
was translated from, so it never beats an SQL form. Large CASE
expressions (deep trees, forests of 7 trees and up) are only fast once
``Raven`` lowers ``spark.sql.codegen.hugeMethodLimit`` to 8000: at
Spark's default, whole-stage codegen keeps a method HotSpot will not
JIT, and the inlined forest runs barely faster than Python (see
``optimizer.inlining.predict_sql``).

Every Python task pays a fixed start-up, almost all of it in pyspark's
per-task ``importlib.invalidate_caches()``. On ``local[4]`` (4-vCPU
Xeon) an identity ``mapInPandas`` over 1 000 rows takes 0.41 s on 4
partitions and 0.59 s on 8, while the benchmark's 250K-row flights
forest scores in about 0.7 s of CPU. So a predict's or a UDF's input
is coalesced (narrow, no shuffle) to ``defaultParallelism`` partitions:
one wave of Python tasks per opaque node, not one per input partition.
Catalyst cannot prune the output of an opaque ``mapInPandas``, so when
a ``Project`` sits directly on a predict, only the child columns it
reads come back over Arrow, with the prediction column.

The task closure carries the predict node itself, with its compiled
and optimized model inside, so no task loads a model from disk. That is
cheaper than a model-store path plus a per-executor session cache. On a
4-vCPU Xeon, T5's 10-tree flights forest as an ``NNPredict`` pickles to
1.33 MB and unpickles in 0.34 ms per task, while a cold
``InferenceSession(path)`` of the same graph takes 7.1 ms. The
benchmark's dense flights LR: 4.5 KB, 0.04 ms vs 0.47 ms.
"""
from __future__ import annotations

import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.pandas.types import from_arrow_schema
from pyspark.sql.types import DoubleType, NullType, StringType, StructField, StructType

from repro.ir import (
    Filter,
    Join,
    PlanNode,
    Project,
    Scan,
    UDFNode,
)
from repro.ir.ops import PREDICTS
from repro.optimizer.inlining import predict_sql


def _predict_map_fn(node, drop=()):
    """Closure shipped to executors. ``node`` is pickled with the model
    artifacts inside; pandas batches stream through Arrow. Each batch
    is scored, stripped of the ``drop`` columns and returned with the
    prediction added: the batch belongs to the iterator, so no copy."""

    def fn(batches):
        for pdf in batches:
            pred = node.predict_pandas(pdf) if len(pdf) else []
            if drop:
                pdf = pdf.drop(columns=drop)
            pdf[node.output_col] = pred
            yield pdf

    return fn


def _one_wave(child: DataFrame) -> DataFrame:
    """``child`` as the input of one wave of Python tasks."""
    return child.coalesce(child.sparkSession.sparkContext.defaultParallelism)


def map_in_pandas(node, child: DataFrame, keep: set[str] | None = None) -> DataFrame:
    """``node`` scored in Python: ``child``, coalesced to one wave of
    tasks, through ``mapInPandas``. Only the child columns in ``keep``
    (all when None) come back with the prediction column."""
    child = _one_wave(child)
    if keep is None:
        keep = set(child.columns)
    fields = [f for f in child.schema.fields if f.name in keep]
    drop = [c for c in child.columns if c not in keep]
    schema = StructType(fields + [StructField(node.output_col, DoubleType())])
    return child.mapInPandas(_predict_map_fn(node, drop), schema=schema)


def _predict_dataframe(node, spark: SparkSession, tables: dict[str, DataFrame],
                       keep: set[str] | None = None) -> DataFrame:
    """The in-process PREDICT, in the physical form ``predict_sql``
    picks. ``keep`` narrows a ``mapInPandas``'s output; Catalyst prunes
    an inlined one itself."""
    child = to_dataframe(node.child, spark, tables)
    sql = predict_sql(node)
    if sql is None:
        return map_in_pandas(node, child, keep)
    return child.select("*", F.expr(sql).alias(node.output_col))


def _udf_schema(spark: SparkSession, child: DataFrame, fn) -> StructType:
    """A black-box UDF's output schema, inferred from its output on up
    to 5 of the child's rows. On an empty child there are no values to
    infer from, so the schema comes from the output's pandas dtypes
    (Arrow keeps the child's numeric dtypes on an empty ``toPandas``).
    A column left untyped (``void``: empty, or NULL in every sampled
    row) takes the child's type of the same name, else string; a
    ``void`` column fails the first batch that holds a value."""
    out = fn(child.limit(5).toPandas())
    if len(out):
        inferred = spark.createDataFrame(out).schema
    else:
        inferred = from_arrow_schema(pa.Schema.from_pandas(out, preserve_index=False))
    types = {f.name: f.dataType for f in child.schema.fields}
    return StructType([
        StructField(f.name, types.get(f.name, StringType()))
        if isinstance(f.dataType, NullType) else f
        for f in inferred.fields
    ])


def to_dataframe(plan: PlanNode, spark: SparkSession, tables: dict[str, DataFrame]) -> DataFrame:
    """Compile ``plan``; ``tables`` binds Scan names to DataFrames."""
    if isinstance(plan, Scan):
        return tables[plan.table]
    if isinstance(plan, Filter):
        return to_dataframe(plan.child, spark, tables).where(plan.predicate.to_sql())
    if isinstance(plan, Project):
        if isinstance(plan.child, PREDICTS):
            # an opaque mapInPandas is not pruned by Catalyst: return
            # only what this Project reads
            keep = set().union(*(e.columns() for _, e in plan.exprs))
            df = _predict_dataframe(plan.child, spark, tables, keep)
        else:
            df = to_dataframe(plan.child, spark, tables)
        return df.selectExpr(
            *[f"{e.to_sql()} AS {name}" for name, e in plan.exprs]
        )
    if isinstance(plan, Join):
        left = to_dataframe(plan.left, spark, tables)
        right = to_dataframe(plan.right, spark, tables)
        if plan.left_on == plan.right_on:
            return left.join(right, on=plan.left_on, how=plan.how)
        cond = left[plan.left_on] == right[plan.right_on]
        return left.join(right, on=cond, how=plan.how).drop(right[plan.right_on])
    if isinstance(plan, PREDICTS):
        return _predict_dataframe(plan, spark, tables)
    if isinstance(plan, UDFNode):
        child = _one_wave(to_dataframe(plan.child, spark, tables))

        def fn(batches, _f=plan.fn):
            for pdf in batches:
                yield _f(pdf)

        return child.mapInPandas(fn, schema=_udf_schema(spark, child, plan.fn))
    raise TypeError(f"cannot codegen {type(plan).__name__}")
