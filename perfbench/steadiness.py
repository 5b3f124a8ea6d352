#!/usr/bin/env python3
"""Steadiness report: runs one workload N times, each with its own seed, and
prints per metric the median, the quartiles, (q3 - q1) / median and the
metric's bound from BENCHMARK.json.

    python3 perfbench/steadiness.py --workload taint --runs 10 --seconds 20

A metric is steady when its spread stays below its bound; the benchmark aims
for a third of it.  Exits 1 when a run fails or a spread exceeds its bound.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = bench["per_layer" if args.trace else "end_to_end"]
    seconds = args.seconds or bench["run_seconds"]

    values = {m["name"]: [] for m in declared}
    ok = True
    for k in range(args.runs):
        seed = args.first_seed + k
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if proc.returncode != 0 or not result.get("correct"):
            print(f"seed {seed}: FAILED (exit {proc.returncode})", flush=True)
            ok = False
            continue
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(
            f"{name} {result['metrics'][name]['value']:.4g}" for name in values), flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':<34} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
    for m in declared:
        sample = values[m["name"]]
        if not sample:
            continue
        q1, med, q3 = stats.quartiles(sample)
        spread = stats.relative_spread(sample)
        bound = m.get("bound")
        flag = ""
        if bound is not None and spread > bound:
            flag, ok = "  OVER", False
        elif bound is not None and spread > bound / 3:
            flag = "  (> bound/3)"
        print(f"{m['name']:<34} {med:>11.4f} {q1:>11.4f} {q3:>11.4f} {spread:>7.3f} "
              f"{bound if bound is not None else '-':>6}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
