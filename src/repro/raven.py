"""Raven facade: the end-to-end inference-query path of Fig. 1.

``Raven.run(sql)`` = Static Analyzer (SQL parser and/or Python script
analyzer) → Cross Optimizer → Runtime Code Generator → Spark execution.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession

from repro.analyzer import analyze_script, parse_inference_query
from repro.ir import PlanNode
from repro.ir.plan import Catalog
from repro.optimizer import CrossOptimizer, OptimizationReport
from repro.runtime.codegen import to_dataframe

# Whole-stage codegen keeps a generated method up to this many bytes of
# bytecode. Spark's default, 65535, keeps methods that HotSpot will not
# JIT (over 8000 bytes, ``DontCompileHugeMethods``), so a large inlined
# forest runs interpreted; at 8000 Spark falls back for that stage only.
HUGE_METHOD_LIMIT = "spark.sql.codegen.hugeMethodLimit"
SPARK_DEFAULT_HUGE_METHOD_LIMIT = "65535"
JIT_HUGE_METHOD_LIMIT = "8000"


@dataclass
class Raven:
    """One inference-query session: a catalog of tables, registered
    model pipelines, and an optimizer configuration."""

    spark: SparkSession
    catalog: Catalog
    tables: dict[str, DataFrame]
    models: dict[str, tuple] = field(default_factory=dict)  # name -> (pipeline, kind)
    optimizer: CrossOptimizer = field(default_factory=CrossOptimizer)

    def __post_init__(self) -> None:
        """Lower the session's huge-method limit to what HotSpot JITs,
        unless someone has already set it. The setting is session-wide:
        it applies to every query on ``spark``, not only Raven's."""
        conf = self.spark.conf
        if conf.get(HUGE_METHOD_LIMIT) == SPARK_DEFAULT_HUGE_METHOD_LIMIT:
            conf.set(HUGE_METHOD_LIMIT, JIT_HUGE_METHOD_LIMIT)

    def register_model(self, name: str, pipeline, kind: str = "label") -> None:
        self.models[name] = (pipeline, kind)

    # ------------------------------------------------------------ steps
    def analyze_sql(self, sql: str) -> PlanNode:
        return parse_inference_query(sql, self.catalog, self.models)

    def analyze_python(self, script: str, result_var: str | None = None):
        return analyze_script(script, self.catalog, self.models, result_var=result_var)

    def optimize(self, plan: PlanNode) -> OptimizationReport:
        return self.optimizer.optimize(plan, self.catalog)

    def execute(self, plan: PlanNode) -> DataFrame:
        return to_dataframe(plan, self.spark, self.tables)

    # ------------------------------------------------------ end-to-end
    def run(self, sql: str, optimize: bool = True) -> DataFrame:
        plan = self.analyze_sql(sql)
        if optimize:
            plan = self.optimize(plan).plan
        return self.execute(plan)
