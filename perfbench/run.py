#!/usr/bin/env python3
"""Builds the benchmark in Release and runs one workload.

    python3 perfbench/run.py --workload served_small --seed 1 --seconds 10 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); outputs (result and span files, the
durable workload's store directory) go to .bench_out/. The last line of
standard output is the result JSON of the run.
"""
import argparse
import os
import subprocess
import sys
import time

RUN_TIMEOUT_S = 170


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def git_sha(root):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build(root, build_dir):
    """Configures once, then builds incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--perturb", default="",
                        help="self-test: perturb one check's input so it must fail")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "server", "server.h")):
        log("no program sources under", os.path.join(root, "src"),
            "- run from the repository root")
        return 2
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    build_dir = os.path.join(root, build_dir)
    if not build(root, build_dir):
        log("build failed")
        return 1

    command = [os.path.join(build_dir, "sqo_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.join(root, ".bench_out"), "--git-sha", git_sha(root)]
    if args.perturb:
        command += ["--perturb", args.perturb]
    started = time.monotonic()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("benchmark did not finish within", RUN_TIMEOUT_S, "s")
        return 1
    if proc.returncode != 0 or not out.strip():
        log("benchmark exited with", proc.returncode)
        return 1
    sys.stdout.write(out)
    log("run took %.1f s" % (time.monotonic() - started))
    return 0


if __name__ == "__main__":
    sys.exit(main())
