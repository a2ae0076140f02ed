#!/usr/bin/env python3
"""Runs one workload repeatedly, one seed per run, and prints each metric's
median, quartiles and spread (interquartile distance over the median).

    python3 perfbench/stability.py --workload served_small --runs 10

Run from the repository root. The bounds in BENCHMARK.json are set from
this command's output: a metric's bound must be at least three times the
spread seen here.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds, trace):
    out = subprocess.run([sys.executable, os.path.join("perfbench", "run.py"),
                          "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", str(trace)],
                         stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise SystemExit("run with seed %d exited with %d" % (seed, out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30,
                        help="run length; BENCHMARK.json run_seconds")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--save", help="write every run's result to this JSON file")
    args = parser.parse_args()

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        result = run_once(args.workload, seed, args.seconds, args.trace)
        results.append(result)
        print("seed %d: correct=%s attempted=%d failed=%d" % (
            seed, result["correct"], result["attempted"], result["failed"]), flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)

    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print("failed share(s): %s; all correct: %s" % (
        shares, all(r["correct"] for r in results)))
    print("%-40s %14s %14s %14s %8s" % ("metric", "median", "q1", "q3", "spread"))
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        print("%-40s %14.4f %14.4f %14.4f %8.4f  %s" % (
            name, median, q1, q3, spread, first["unit"]))


if __name__ == "__main__":
    main()
