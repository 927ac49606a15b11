"""Run one workload of the Raven inference-query benchmark.

    python3 perfbench/run.py --workload los-join --seed 1 --seconds 16 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
The workload's set-up (Spark start, data generation, Parquet load,
model training, correctness gate as warm-up) is followed by a closed
loop -- one client, one query in flight -- that sends whole rounds of
the workload's query mix through the ``Raven`` facade for ``--seconds``.
With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the loop runs twice as long,
alternating untraced and traced rounds, and the line carries the
per-layer metrics (see ``layers.py``). Metric and workload notes are in
``README.md`` next to this file.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
CORES = 4
DRIVER_MEMORY = "2g"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("los-join", "flights-graph"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def configure_env(workdir: str) -> None:
    """Everything Spark and its Python workers write goes under
    ``workdir``; the executors import ``repro`` from this checkout."""
    tmp = os.path.join(workdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["TMPDIR"] = tmp
    os.environ["SPARK_LOCAL_DIRS"] = tmp
    # no hsperfdata files in the system temp dir, from the launcher or the JVM
    os.environ["SPARK_LAUNCHER_OPTS"] = "-XX:-UsePerfData"
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{CORES}]",
        f"--driver-memory {DRIVER_MEMORY}",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf spark.local.dir={shlex.quote(tmp)}",
        f"--conf spark.executorEnv.PYTHONPATH={shlex.quote(os.environ['PYTHONPATH'])}",
        f"--driver-java-options {shlex.quote(f'-XX:-UsePerfData -Djava.io.tmpdir={tmp}')}",
        "pyspark-shell",
    ])
    sys.path.insert(0, SRC)


def start_spark(workdir: str):
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", 2 * CORES)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        # shuffle joins, as in the test suite's session
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.warehouse.dir", os.path.join(workdir, "warehouse"))
        # an open cost of a whole split reads each Parquet file as one
        # partition (see workloads.write_parquet)
        .config("spark.sql.files.openCostInBytes", 128 << 20)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and its Python workers)."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def facade(query) -> None:
    """One query as a user runs it: the facade call, then ``force``."""
    from repro.runtime.timing import force

    force(query.run())


def closed_loop(queries, bad: set[str], seconds: float, runners=(facade,)) -> dict:
    """Send whole rounds of ``queries`` until ``seconds`` have passed.
    Round ``i`` runs each query through ``runners[i % len(runners)]``; the
    loop ends after a round of the last runner, so all get equal rounds.
    A query raising, or of a form that failed the gate, counts as failed."""
    latencies: list[list[float]] = [[] for _ in runners]
    log: list[str] = []
    rows = attempted = failed = 0
    start = time.perf_counter()
    for i in itertools.count():
        k = i % len(runners)
        for q in queries:
            attempted += 1
            t0 = time.perf_counter()
            try:
                runners[k](q)
            except Exception:
                traceback.print_exc()
                failed += 1
                continue
            latencies[k].append(time.perf_counter() - t0)
            log.append(f"{q.name}={latencies[k][-1]:.3f}")
            rows += q.predict_rows
            if q.name in bad:
                failed += 1
        if k == len(runners) - 1 and time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    print("perfbench: latencies " + " ".join(log), file=sys.stderr)
    return {"latencies": latencies, "rows": rows, "attempted": attempted,
            "failed": failed, "wall": wall}


def end_to_end(loop: dict, setup_s: float) -> dict:
    (lat,) = loop["latencies"]
    return {
        "query_s_p50": {"value": statistics.median(lat), "unit": "s"},
        "rows_per_s": {"value": loop["rows"] / loop["wall"], "unit": "1/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "raven.py")):
        print(f"perfbench: no Raven sources under {SRC}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".bench_build", f"perfbench-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    spark = None
    try:
        configure_env(workdir)
        from perfbench import check, workloads

        t0 = time.perf_counter()
        spark = start_spark(workdir)
        spark_start_s = time.perf_counter() - t0
        setup = workloads.build(spark, args.workload, args.seed, workdir)
        t0 = time.perf_counter()
        bad, warm_s = check.gate(args.workload, setup, CORES)
        gate_s = time.perf_counter() - t0
        stages = {"spark_start_s": spark_start_s, **setup.stage_s, "warm_up_s": warm_s}
        setup_s = sum(stages.values())
        print("perfbench: set-up " + ", ".join(f"{k}={v:.3f}" for k, v in stages.items())
              + f"; correctness gate {gate_s:.3f}s", file=sys.stderr)

        t0 = time.perf_counter()
        if args.trace:
            from perfbench import layers

            tracer = layers.Tracer(spark, setup.raven)
            # untraced and traced rounds alternate, for the overhead
            loop = closed_loop(setup.queries, bad, 2 * args.seconds, (facade, tracer.run))
            metrics, correct = layers.traced_pass(spark, setup, tracer, loop, workdir)
        else:
            loop = closed_loop(setup.queries, bad, args.seconds)
            metrics, correct = end_to_end(loop, setup_s), True
        print(f"perfbench: measured for {time.perf_counter() - t0:.3f}s", file=sys.stderr)
        correct = correct and not bad and loop["failed"] == 0
        error_rate = loop["failed"] / loop["attempted"]
        summary = "  ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in metrics.items())
        print(f"perfbench: {args.workload} seed={args.seed} "
              f"queries={loop['attempted']} error_rate={error_rate:.4f} {summary}")
        result = {
            "correct": correct,
            "attempted": loop["attempted"],
            "failed": loop["failed"],
            "metrics": metrics,
        }
    finally:
        if spark is not None:
            stop_spark(spark)
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, ROOT)
    sys.exit(main())
