#!/usr/bin/env python3
"""Builds the ndv end-to-end benchmark and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

The benchmark binary is built from source into .bench_build/ (CMake, Release)
on the first run and rebuilt incrementally after that; build output goes to
standard error. Scratch files and traces stay under .bench_build/. The last
line of standard output is the JSON result; see perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "ndv_perfbench")
WORKLOADS = ("analyze", "serve", "ingest")
RUN_TIMEOUT_S = 170


def default_seed():
    with open(os.path.join(HERE, "metrics.json")) as f:
        return json.load(f)["seeds"]["default"]


def git_sha():
    # Only the checkout's own .git counts: never search parent directories.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no ndv source tree next to perfbench/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "ndv_perfbench",
                  "-j", "3"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    seed = default_seed() if args.seed is None else args.seed

    build()
    work = os.path.join(BUILD, "work", args.workload)
    traces = os.path.join(BUILD, "traces")
    os.makedirs(traces, exist_ok=True)
    trace_out = os.path.join(
        traces, "%s-seed%d-%s.json" % (args.workload, seed, args.size))
    command = [BINARY, "--workload", args.workload, "--seed", str(seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--size", args.size, "--work-dir", work,
               "--trace-out", trace_out, "--git-sha", git_sha()]
    try:
        done = subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s did not finish within %d s"
                 % (args.workload, RUN_TIMEOUT_S))
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
