#!/usr/bin/env python3
"""Builds and runs the chipmunk end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload ace-seq2 --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (which compiles the chipmunk
libraries from src/ in Release mode) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later runs only rebuild what changed. Build output goes to
stderr. The benchmark's own output goes to stdout; its last line is one JSON
object with the keys correct, attempted, failed and metrics. The exit status
is the benchmark's: 0 when every output gate held, nonzero otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# The benchmark must end within 180 s; the build is allowed longer.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 880


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no chipmunk source tree under {ROOT}/src")
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir,
                  "--target", "chipmunk_perfbench", "-j", "4"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_LIMIT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {step[:2]} did not finish: {err}")
        if done.returncode != 0:
            fail(f"build step {' '.join(step[:3])} failed")
    return os.path.join(build_dir, "chipmunk_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--short", action="store_true",
                        help="self-test sizes: a small round per workload")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = os.path.join(ROOT, target_dir)
    binary = build(os.path.join(base, "perfbench"))
    work_dir = os.path.join(base, "work")
    os.makedirs(work_dir, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir]
    if args.short:
        command.append("--short")
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_LIMIT_S, check=False, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_LIMIT_S} s")
    lines = done.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        sys.stdout.write(done.stdout)
        fail(f"benchmark exited {done.returncode} without a result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
