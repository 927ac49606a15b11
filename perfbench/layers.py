"""Traced pass: per-layer metrics, timed from outside the program.

Spans are taken around calls into each layer's public functions, never
inside them:

* traced rounds, alternating with untraced ones in the closed loop,
  where every query is split into ``Raven.analyze_sql``/``analyze_python``
  -> ``optimize`` (with each ``Rule`` wrapped) -> ``execute`` -> ``force``
  under its own Spark job group, whose jobs, stages and tasks are read
  from the status tracker;
* per query form: plan-shape counts of the optimized plan and the
  pickled size of its predict node;
* per SQL form: the predict's child run alone and under an identity
  ``mapInPandas`` (the Python-worker floor), and the predict's input
  replayed in the driver in Arrow-sized batches through the plan's
  ``predict_pandas`` and through both physical forms of the model: the
  classical miniml pipeline and its onnxlite graph, whose ops are also
  run one by one through ``ops.KERNELS``. The op replay must give the
  same outputs as ``Graph.run``, and its op times must add up to the
  graph's run time within ``OP_SUM_TOLERANCE``.

A layer that does no work on a workload reports 0.
"""
from __future__ import annotations

import itertools
import re
import statistics
import sys
import time

import numpy as np
from py4j.protocol import Py4JError
from pyspark import cloudpickle

from repro.ir import Join, walk
from repro.ir.ops import MLPredict, NNPredict
from repro.miniml import DecisionTree, RandomForest
from repro.onnxlite import InferenceSession
from repro.onnxlite.ops import KERNELS
from repro.optimizer import CrossOptimizer, Rule, default_rules
from repro.optimizer.nn_translate import translate_predict
from repro.runtime.codegen import to_dataframe
from repro.runtime.model_store import ModelStore
from repro.runtime.timing import force

from perfbench.check import predict_node

# the default rules, which both workloads run (``nn_translation`` time
# shows in ``optimizer.optimize_ms`` on ``flights-graph``)
RULES = ("filter_pushdown", "predicate_based_model_pruning",
         "model_projection_pushdown", "prune_columns")
OP_TYPES = ("MatMul", "Gather", "Cast", "LessOrEqual", "Equal", "OneHot",
            "Concat", "Add", "Sub", "Div", "Sigmoid", "Reshape", "Identity")
TABLES = ("patient_info", "blood_tests", "prenatal_tests", "flights")
REPLAY_ROWS = 50_000  # predict input replayed per query form
REPLAY_PASSES = 5  # the median pass is kept
PROBE_REPEATS = 2  # scan / Python-worker probes, median kept
OP_SUM_TOLERANCE = 0.35  # |sum of op times / Graph.run time - 1|; observed 0.8-0.95
# per-query spans of the traced loop, recorded in seconds
SPAN_KEYS = ("analyzer.sql_ms", "analyzer.py_ms", "optimizer.optimize_ms",
             *(f"optimizer.rule_ms.{r}" for r in RULES), "codegen.compile_ms",
             "spark.exec_s")


def metric_names() -> dict[str, str]:
    """Every per-layer metric, name -> unit, in output order."""
    names = {
        "analyzer.sql_ms": "ms", "analyzer.py_ms": "ms",
        "optimizer.optimize_ms": "ms",
        **{f"optimizer.rule_ms.{r}": "ms" for r in RULES},
        "codegen.compile_ms": "ms",
        "optimizer.rules_fired": "count", "optimizer.tree_nodes": "count",
        "optimizer.model_features": "count", "optimizer.joins": "count",
        "codegen.predict_payload_bytes": "bytes",
        "spark.jobs": "count", "spark.stages": "count", "spark.tasks": "count",
        "spark.exec_s": "s", "spark.scan_s": "s", "spark.pyworker_s": "s",
        **{f"spark.partitions.{t}": "count" for t in TABLES},
        "ir.predict_ms_per_10k": "ms", "miniml.featurize_ms_per_10k": "ms",
        "miniml.model_ms_per_10k": "ms", "miniml.transform_codes_ms_per_10k": "ms",
        "onnxlite.run_ms_per_10k": "ms",
        **{f"onnxlite.op_share.{op}": "%" for op in OP_TYPES},
        "onnxlite.op_share.other": "%",
        "onnxlite.op_sum_ratio": "ratio",
        "onnxlite.n_ops": "count", "onnxlite.session_load_ms": "ms",
        "trace.query_s_p50": "s", "trace.untraced_query_s_p50": "s",
    }
    return names


class TimedRule(Rule):
    """A rule whose ``apply`` time is added to ``sink[name]`` (seconds)."""

    def __init__(self, rule: Rule, sink: dict[str, float]):
        self.rule, self.name, self.sink = rule, rule.name, sink

    def apply(self, plan, catalog):
        t0 = time.perf_counter()
        try:
            return self.rule.apply(plan, catalog)
        finally:
            self.sink[self.name] = self.sink.get(self.name, 0.0) + time.perf_counter() - t0


def _median(xs) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def _mean(xs) -> float:
    xs = list(xs)
    return sum(xs) / len(xs) if xs else 0.0


class Tracer:
    """Runs queries with a span around each layer call and keeps them.
    While it runs a query, ``raven``'s optimizer has every rule wrapped
    in a ``TimedRule``; other queries run with the plain rules."""

    def __init__(self, spark, raven):
        self.spark, self.raven = spark, raven
        self.rule_s: dict[str, float] = {}
        self.samples: list[dict] = []
        self._ids = itertools.count()
        plain = raven.optimizer
        self._timed = CrossOptimizer([TimedRule(r, self.rule_s) for r in plain.rules],
                                     plain.max_iterations)

    def run(self, q) -> None:
        plain, self.raven.optimizer = self.raven.optimizer, self._timed
        try:
            self._run(q)
        finally:
            self.raven.optimizer = plain
            # later untraced queries must not count as this query's jobs
            self.spark.sparkContext.setLocalProperty("spark.jobGroup.id", None)

    def _run(self, q) -> None:
        sc = self.spark.sparkContext
        group = f"perfbench-{next(self._ids)}"
        sc.setJobGroup(group, q.name)
        self.rule_s.clear()
        span: dict = {"group": group}
        t0 = time.perf_counter()
        if q.sql is not None:
            plan = q.raven.analyze_sql(q.sql)
            span["analyzer.sql_ms"] = time.perf_counter() - t0
        else:
            plan = q.raven.analyze_python(q.script).plans[0]
            span["analyzer.py_ms"] = time.perf_counter() - t0
        t1 = time.perf_counter()
        report = q.raven.optimize(plan)
        t2 = time.perf_counter()
        df = q.raven.execute(report.plan)
        t3 = time.perf_counter()
        force(df)
        t4 = time.perf_counter()
        span.update({"optimizer.optimize_ms": t2 - t1, "codegen.compile_ms": t3 - t2,
                     "spark.exec_s": t4 - t3})
        span.update({f"optimizer.rule_ms.{r}": s for r, s in self.rule_s.items() if r in RULES})
        self.samples.append(span)

    def spark_counts(self) -> dict[str, float]:
        """Mean jobs, stages and tasks per query, from the status tracker."""
        sc = self.spark.sparkContext
        try:  # let the listener bus deliver the last job's events
            sc._jsc.sc().listenerBus().waitUntilEmpty(10_000)
        except Py4JError:
            time.sleep(1.0)
        tracker = sc.statusTracker()
        jobs, stages, tasks = [], [], []
        for s in self.samples:
            ids = tracker.getJobIdsForGroup(s["group"])
            stage_ids = [sid for j in ids if (info := tracker.getJobInfo(j))
                         for sid in info.stageIds]
            infos = [i for sid in stage_ids if (i := tracker.getStageInfo(sid))
                     and i.numCompletedTasks > 0]
            jobs.append(len(ids))
            stages.append(len(infos))
            tasks.append(sum(i.numCompletedTasks for i in infos))
        return {"spark.jobs": _mean(jobs), "spark.stages": _mean(stages),
                "spark.tasks": _mean(tasks)}


def tree_nodes(node) -> int:
    """Tree nodes the predict evaluates (0 for non-tree models)."""
    if isinstance(node, MLPredict):
        m = node.pipeline.model
        if isinstance(m, DecisionTree):
            return m.n_nodes
        if isinstance(m, RandomForest):
            return sum(t.n_nodes for t in m.trees)
        return 0
    # 3-GEMM trees (onnxlite.convert.tree_nodes): one threshold per
    # internal node, one path length per leaf
    return sum(len(v) for k, v in node.graph.initializers.items()
               if re.fullmatch(r"t\d+_(thr|D)", k))


def plan_shape(q) -> dict[str, float]:
    report = q.raven.optimize(q.analyze())
    node = predict_node(report.plan)
    feat = node.pipeline.featurizer if isinstance(node, MLPredict) else node.featurizer
    return {
        "optimizer.rules_fired": len(report.applied),
        "optimizer.tree_nodes": tree_nodes(node),
        "optimizer.model_features": feat.n_features,
        "optimizer.joins": sum(isinstance(n, Join) for n in walk(report.plan)),
        "codegen.predict_payload_bytes": len(cloudpickle.dumps(node)),
    }


def _identity(batches):
    yield from batches


def spark_probe(q, node) -> dict[str, float]:
    """The predict's child alone, and under an identity mapInPandas."""
    child = to_dataframe(node.child, q.raven.spark, q.raven.tables)
    passthrough = child.mapInPandas(_identity, schema=child.schema)
    scan, both = [], []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        force(child)
        t1 = time.perf_counter()
        force(passthrough)
        t2 = time.perf_counter()
        scan.append(t1 - t0)
        both.append(t2 - t1)
    scan_s = statistics.median(scan)
    return {"spark.scan_s": scan_s, "spark.pyworker_s": statistics.median(both) - scan_s}


def replay_ops(graph, feeds) -> tuple[dict, dict[str, float]]:
    """Run ``graph`` op by op through ``KERNELS``; (outputs, s per op type)."""
    env = dict(graph.initializers)
    env.update({name: np.asarray(feeds[name]) for name in graph.inputs})
    op_s: dict[str, float] = {}
    for n in graph.toposorted():
        args = [env[i] for i in n.inputs]
        t0 = time.perf_counter()
        env[n.output] = KERNELS[n.op_type](args, n.attrs)
        dt = time.perf_counter() - t0
        key = n.op_type if n.op_type in OP_TYPES else "other"
        op_s[key] = op_s.get(key, 0.0) + dt
    return {o: env[o] for o in graph.outputs}, op_s


def _model_call(node):
    model = node.pipeline.model
    if node.kind == "proba":
        return lambda X: model.predict_proba(X)[:, 1]
    if node.kind == "score":
        return model.decision_function
    return model.predict


def physical_forms(q, node) -> tuple[MLPredict, NNPredict]:
    """The plan's predict in both physical forms over the same child: the
    classical pipeline (the plan optimized without NN translation) and
    its onnxlite graph (``translate_predict``)."""
    if isinstance(node, MLPredict):
        return node, translate_predict(node)
    plan = CrossOptimizer(default_rules()).optimize(q.analyze(), q.raven.catalog).plan
    return predict_node(plan), node


def replay(q, node, classical: MLPredict, nn: NNPredict, batch_rows: int
           ) -> tuple[dict[str, float], dict[str, float], int, bool]:
    """Replay the predict's input in the driver through the plan's node
    and through both physical forms. Returns (seconds per layer, seconds
    per op type, rows replayed, op replay equal to ``Graph.run``)."""
    child = to_dataframe(node.child, q.raven.spark, q.raven.tables)
    pdf = child.limit(REPLAY_ROWS).toPandas()
    batches = [pdf.iloc[i:i + batch_rows] for i in range(0, len(pdf), batch_rows)]
    passes: list[dict[str, float]] = []
    ops: list[dict[str, float]] = []
    equal = True
    for _ in range(REPLAY_PASSES):
        acc: dict[str, float] = {}
        op_acc: dict[str, float] = {}

        def timed(key, fn, *args):
            t0 = time.perf_counter()
            out = fn(*args)
            acc[key] = acc.get(key, 0.0) + time.perf_counter() - t0
            return out

        for b in batches:
            timed("ir.predict_ms_per_10k", node.predict_pandas, b)
            X = timed("miniml.featurize_ms_per_10k", classical.pipeline.featurizer.transform, b)
            timed("miniml.model_ms_per_10k", _model_call(classical), X)
            feeds = timed("miniml.transform_codes_ms_per_10k", nn.featurizer.transform_codes, b)
            out = timed("onnxlite.run_ms_per_10k", nn.graph.run, feeds)
            replayed, op_s = replay_ops(nn.graph, feeds)
            for op, t in op_s.items():
                op_acc[op] = op_acc.get(op, 0.0) + t
            equal = equal and all(
                np.array_equal(out[k], replayed[k], equal_nan=True) for k in out)
        passes.append(acc)
        ops.append(op_acc)

    def median(dicts):
        return {k: statistics.median(d.get(k, 0.0) for d in dicts) for k in dicts[0]}

    return median(passes), median(ops), len(pdf), equal


def session_load_ms(node, store: ModelStore) -> float:
    path = store.save_graph_model(node.model_name, node.graph)
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        InferenceSession(path)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def traced_pass(spark, setup, tracer: Tracer, loop: dict, workdir: str):
    """Per-layer metrics and whether the trace's own checks passed.
    ``loop`` alternated untraced rounds and rounds run by ``tracer``."""
    names = metric_names()
    m: dict[str, float] = dict.fromkeys(names, 0.0)
    ok = True

    # 1. spans of the traced rounds
    for key in SPAN_KEYS:
        scale = 1e3 if names[key] == "ms" else 1.0
        m[key] = _median(s[key] for s in tracer.samples if key in s) * scale
    m.update(tracer.spark_counts())
    untraced, traced = loop["latencies"]
    m["trace.untraced_query_s_p50"] = _median(untraced)
    m["trace.query_s_p50"] = _median(traced)

    # 2. plan shape and payload, every form
    shapes = [plan_shape(q) for q in setup.queries]
    for key in shapes[0]:
        m[key] = _mean(s[key] for s in shapes)
    for t, n in setup.partitions.items():
        m[f"spark.partitions.{t}"] = n

    # 3. Spark probes, replay and session load, on each SQL form (a script
    # form optimizes to the plan of its SQL twin)
    batch_rows = int(spark.conf.get("spark.sql.execution.arrow.maxRecordsPerBatch"))
    store = ModelStore(f"{workdir}/models")
    probes, layer_s, op_s, n_ops, loads = [], {}, {}, [], []
    rows = 0
    for q in [q for q in setup.queries if q.sql is not None]:
        node = predict_node(q.raven.optimize(q.analyze()).plan)
        probes.append(spark_probe(q, node))
        classical, nn = physical_forms(q, node)
        secs, ops, n, equal = replay(q, node, classical, nn, batch_rows)
        if not equal:
            print(f"perfbench: op replay of {q.name} differs from Graph.run", file=sys.stderr)
            ok = False
        rows += n
        for acc, part in ((layer_s, secs), (op_s, ops)):
            for k, t in part.items():
                acc[k] = acc.get(k, 0.0) + t
        n_ops.append(nn.graph.n_ops())
        loads.append(session_load_ms(nn, store))
    for key in ("spark.scan_s", "spark.pyworker_s"):
        m[key] = _mean(p[key] for p in probes)
    for k, t in layer_s.items():
        m[k] = t / rows * 1e7  # s over ``rows`` -> ms per 10K rows
    op_total = sum(op_s.values())
    for op, t in op_s.items():
        m[f"onnxlite.op_share.{op}"] = 100 * t / op_total
    m["onnxlite.op_sum_ratio"] = op_total / layer_s["onnxlite.run_ms_per_10k"]
    if abs(m["onnxlite.op_sum_ratio"] - 1) > OP_SUM_TOLERANCE:
        print(f"perfbench: op times sum to {m['onnxlite.op_sum_ratio']:.3f}x "
              "of Graph.run", file=sys.stderr)
        ok = False
    m["onnxlite.n_ops"] = _mean(n_ops)
    m["onnxlite.session_load_ms"] = _median(loads)
    return {k: {"value": float(m[k]), "unit": u} for k, u in names.items()}, ok
