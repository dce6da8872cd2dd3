#!/usr/bin/env python3
"""Runs one workload of the repo benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Builds perfbench/ (a standalone CMake package compiling ../src) into
.bench_build/perfbench on first use, then runs chef_perfbench. The last
line of standard output is its JSON result; build output goes to
standard error. A traced run also writes its spans to
.bench_build/traces/<workload>.json. Workloads and metrics are described
in perfbench/LAYERS.md and BENCHMARK.json.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solver-heavy", "interp-heavy", "repeat-batches")
# Leaves headroom under the 180-second limit of one run.
RUN_TIMEOUT_S = 170


def build_root():
    path = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "chef", "engine.h")):
        sys.exit("perfbench: engine sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    root = build_root()
    build_dir = os.path.join(root, "perfbench")
    build(build_dir)

    command = [os.path.join(build_dir, "chef_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(root, "traces")
        os.makedirs(traces, exist_ok=True)
        command += ["--trace-out",
                    os.path.join(traces, args.workload + ".json")]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(done.stdout.decode("utf-8", "replace"))
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
