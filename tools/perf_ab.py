"""Compare a base git revision with this checkout on the perfbench
workloads, in alternating runs.

    python3 tools/perf_ab.py --base HEAD~1 --workloads flights-graph los-join \
        --seeds 1 2 3 4 5 6 7 8 9 10

The base revision is extracted with ``git archive <rev> | tar -x`` into
a temporary directory outside the repository and removed afterwards.
For each seed and workload, ``perfbench/run.py`` runs once in the base
copy and once in this checkout; which side goes first alternates from
one seed to the next, so drift in machine speed falls on both sides.
The run length (``run_seconds``) and the end-to-end metrics come from
``BENCHMARK.json`` of this checkout. A gain is only claimed on at least
ten pairs of runs, so the default is ten seeds.
The output is one markdown table per workload: every seed's values on
both sides, the medians, the change of the median in %, the number
of seeds on which the change was better, and one verdict per metric
(see ``verdict``).
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--base", required=True, help="git revision to compare against")
    p.add_argument("--workloads", nargs="+", default=["los-join", "flights-graph"])
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    return p.parse_args(argv)


def extract(rev: str, dest: str) -> None:
    """``git archive <rev> | tar -x -C dest``."""
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", rev], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"perf_ab: git archive {rev} failed")


def run_bench(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``; its final JSON line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=20 * seconds + 600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"perf_ab: {workload} seed {seed} failed in {checkout}")
    return json.loads(lines[-1])


def fmt(v: float) -> str:
    return f"{v:.4g}" if abs(v) < 1e4 else f"{v:.0f}"


def quartiles(xs: list[float]) -> tuple[float, float]:
    """First and third quartile of ``xs``."""
    q = statistics.quantiles(xs, n=4) if len(xs) > 1 else xs * 3
    return q[0], q[2]


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    """Verdict on one metric of one workload from paired runs
    (``base[i]`` and ``change[i]`` share a seed):

    * ``gain``: the change is better in at least 9/10 of the pairs (ties
      count for neither) and the medians differ by more than the
      distance between the parent's first and third quartile;
    * ``worse``: the change's median is worse than the parent's by more
      than ``bound`` (a fraction of the parent's median);
    * ``unresolved``: the parent's Q1–Q3 distance exceeds ``bound`` of
      its median, and not every run of the change is better than every
      run of the parent;
    * ``no worse``: otherwise."""
    sign = 1.0 if better == "lower" else -1.0  # times a value: lower is better
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    mb, mc = statistics.median(base), statistics.median(change)
    q1, q3 = quartiles(base)
    if 10 * wins >= 9 * len(base) and sign * (mb - mc) > q3 - q1:
        return "gain"
    if sign * (mc - mb) > bound * abs(mb):
        return "worse"
    all_better = max(sign * c for c in change) < min(sign * b for b in base)
    if q3 - q1 > bound * abs(mb) and not all_better:
        return "unresolved"
    return "no worse"


def table(workload: str, metrics: list[dict], runs: list[tuple[int, str, dict, dict]]) -> str:
    """Markdown: one row per seed, then medians, quartiles, change and
    wins."""
    head = ["seed", "first"] + [f"{m['name']} ({m['unit']}) base → change" for m in metrics]
    head += ["correct", "failed"]
    rows = [f"**{workload}**", "", "| " + " | ".join(head) + " |",
            "|" + "---|" * len(head)]
    for seed, first, base, change in runs:
        cells = [str(seed), first]
        cells += [f"{fmt(base['metrics'][m['name']]['value'])} → "
                  f"{fmt(change['metrics'][m['name']]['value'])}" for m in metrics]
        cells += [f"{base['correct']} / {change['correct']}",
                  f"{base['failed']} / {change['failed']}"]
        rows.append("| " + " | ".join(cells) + " |")
    medians, quarts = ["median", ""], ["Q1–Q3", ""]
    deltas, wins = ["change of median", ""], ["change better", ""]
    verdicts = ["verdict", ""]
    for m in metrics:
        b = [r[2]["metrics"][m["name"]]["value"] for r in runs]
        c = [r[3]["metrics"][m["name"]]["value"] for r in runs]
        mb, mc = statistics.median(b), statistics.median(c)
        medians.append(f"{fmt(mb)} → {fmt(mc)}")
        qb, qc = quartiles(b), quartiles(c)
        quarts.append(f"{fmt(qb[0])}–{fmt(qb[1])} → {fmt(qc[0])}–{fmt(qc[1])}")
        deltas.append(f"{100 * (mc - mb) / mb:+.1f}%")
        better = sum((y < x) if m["better"] == "lower" else (y > x) for x, y in zip(b, c))
        wins.append(f"{better}/{len(runs)}")
        verdicts.append(verdict(b, c, m["better"], m["bound"]))
    for row in (medians, quarts, deltas, wins, verdicts):
        rows.append("| " + " | ".join(row + ["", ""]) + " |")
    return "\n".join(rows)


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics, seconds = bench["end_to_end"], bench["run_seconds"]
    base_dir = tempfile.mkdtemp(prefix="perf_ab-")
    try:
        extract(args.base, base_dir)
        results = {w: [] for w in args.workloads}
        for i, seed in enumerate(args.seeds):
            for workload in args.workloads:
                order = [("base", base_dir), ("change", ROOT)]
                if i % 2:
                    order.reverse()
                out = {}
                for side, checkout in order:
                    out[side] = run_bench(checkout, workload, seed, seconds)
                    e2e = {k: v["value"] for k, v in out[side]["metrics"].items()}
                    print(f"perf_ab: {workload} seed={seed} {side} {e2e}", file=sys.stderr)
                results[workload].append((seed, order[0][0], out["base"], out["change"]))
    finally:
        shutil.rmtree(base_dir, ignore_errors=True)
    print(f"perfbench `--seconds {seconds:g}`, base `{args.base}` → this checkout\n")
    for workload, runs in results.items():
        print(table(workload, metrics, runs) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
