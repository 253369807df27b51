#!/usr/bin/env python3
"""Run the benchmark in alternating pairs: a git revision against the working tree.

usage: python3 tools/bench_pairs.py REV WORKLOAD[,WORKLOAD...] PAIRS [--seed S] [--seconds T]

Extracts REV (the parent, say HEAD or a commit) with ``git archive`` into a
temporary directory once, which is removed afterwards. Then, for each
workload in turn, each pair runs ``perfbench/run.py --workload WORKLOAD
--trace 0`` once from that tree and once from the working tree, each in a
fresh process; odd pairs run the parent first and even pairs run the change
first, so that a drift of the host over the session falls on both sides.
After a workload's pairs, for every metric both sides report, it prints the
parent's and the change's median, the parent's interquartile range, the
median change relative to the parent, and in how many pairs the change's
value is lower. Each run's ``setup_s`` is the median of a few fresh
processes, which on a shared host can land in either of two modes; so it
then prints, per side, the minimum, lower quartile and median of all those
processes' set-up times pooled over the pairs, read from the result file
that each run leaves in its tree's ``perfbench/out/``. Last comes one JSON
line with every run's values and set-up samples. Exits 1 if any run fails
or reports an incorrect result. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(tree: Path, workload: str, seed: int, seconds: float):
    """The metric values and the set-up samples of one ``perfbench/run.py``
    run from ``tree``, or None when the run fails or reports an incorrect
    result."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        last = {"correct": False}
    if proc.returncode or not last["correct"]:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        return None
    result = tree / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace0.json"
    samples = json.loads(result.read_text())["setup_samples_s"]
    return {name: m["value"] for name, m in last["metrics"].items()}, samples


def summarize(parent: list, change: list) -> list:
    """One row per metric that every run reports: (name, parent median,
    change median, parent IQR, relative median change, pairs lower)."""
    names = [name for name in parent[0] if all(name in run for run in parent + change)]
    rows = []
    for name in names:
        a = [run[name] for run in parent]
        b = [run[name] for run in change]
        q1, _, q3 = statistics.quantiles(a, n=4, method="inclusive") if len(a) > 1 else (a[0],) * 3
        med_a, med_b = statistics.median(a), statistics.median(b)
        rel = (med_b - med_a) / med_a if med_a else float("nan")
        rows.append((name, med_a, med_b, q3 - q1, rel, sum(y < x for x, y in zip(a, b))))
    return rows


def compare(trees: dict, workload: str, args) -> int:
    """Run ``args.pairs`` alternating pairs of ``workload`` and print their
    table and JSON line; 1 when a run fails, else 0."""
    runs = {"parent": [], "change": []}
    setup = {"parent": [], "change": []}
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        got = {side: run_bench(trees[side], workload, args.seed, args.seconds)
               for side in order}
        if None in got.values():
            print(f"{workload} pair {pair}: a run failed", file=sys.stderr)
            return 1
        for side, (values, samples) in got.items():
            runs[side].append(values)
            setup[side].append(samples)
        print(f"{workload} pair {pair} ({order[0]} first) done", file=sys.stderr)

    print(f"{workload}: {args.rev} (parent) vs working tree (change), {args.pairs} pairs, "
          f"seed {args.seed}, {args.seconds:g} s")
    print(f"  {'metric':32s} {'parent p50':>12s} {'change p50':>12s} {'parent IQR':>12s} "
          f"{'change':>8s} {'lower':>7s}")
    for name, med_a, med_b, iqr, rel, lower in summarize(runs["parent"], runs["change"]):
        print(f"  {name:32s} {med_a:12.6g} {med_b:12.6g} {iqr:12.6g} {rel:+8.1%} "
              f"{lower:3d}/{args.pairs}")
    for side in ("parent", "change"):
        pooled = [t for samples in setup[side] for t in samples]
        if len(pooled) > 1:  # as statistics.quantiles needs
            q1 = statistics.quantiles(pooled, n=4, method="inclusive")[0]
            print(f"  setup samples, {side:6s}: min {min(pooled):.4g}  q1 {q1:.4g}  "
                  f"median {statistics.median(pooled):.4g}  (n={len(pooled)})")
    print(json.dumps({"rev": args.rev, "workload": workload, **runs,
                      "setup_samples_s": setup}), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision of the parent, e.g. HEAD")
    parser.add_argument("workload", help="perfbench workloads, comma-separated, "
                                         "e.g. dense_select,study")
    parser.add_argument("pairs", type=int, help="number of alternating pairs per workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("PAIRS must be at least 1")
    workloads = args.workload.split(",")
    if not all(workloads):
        parser.error("WORKLOAD names an empty workload")

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.rev],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        trees = {"parent": Path(tmp), "change": ROOT}
        for workload in workloads:
            if compare(trees, workload, args):
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
