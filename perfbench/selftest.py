#!/usr/bin/env python3
"""Self-test of the benchmark.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it makes a short-mode run with tracing
off and one with tracing on, and checks that the last stdout line is a result
with correct == true that names every end-to-end (respectively per-layer)
metric of BENCHMARK.json, each with a numeric value, a unit equal to the
declared one, and a name made of [A-Za-z0-9_.-]. It then copies only
BENCHMARK.json and the benchmark's directories into a scratch directory and
checks that the benchmark fails there without printing a result. Last, it
checks that the known program defects that keep clean configs out of the
workloads still reproduce. Exits 0 when every check passes.
"""

import json
import os
import re
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9_.-]{1,64}$")


def run(cwd, workload, trace):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", str(trace),
               "--short"]
    return subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900,
                          check=False)


def result_line(stdout):
    lines = stdout.strip().split("\n")
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def check_run(spec, workload, trace):
    problems = []
    done = run(ROOT, workload, trace)
    result = result_line(done.stdout)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0 or result is None:
        return [f"{where}: exit {done.returncode}, no result line\n"
                f"{done.stdout[-2000:]}{done.stderr[-2000:]}"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{where}: correct is {result.get('correct')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted is {result.get('attempted')}")
    if not isinstance(result.get("failed"), int):
        problems.append(f"{where}: failed is {result.get('failed')}")
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            problems.append(f"{where}: metric {m['name']} missing")
            continue
        if not isinstance(got.get("value"), (int, float)):
            problems.append(f"{where}: {m['name']} has no numeric value")
        if got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got.get('unit')}, "
                            f"declared {m['unit']}")
    for name in metrics:
        if not NAME.match(name):
            problems.append(f"{where}: metric name {name!r}")
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        problems.append(f"{where}: undeclared metrics {sorted(extra)}")
    return problems


def check_bare(spec):
    """The benchmark alone, without the program's sources, must fail."""
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload",
         spec["workloads"][0]["name"], "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=bare, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=180, check=False)
    shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if done.returncode == 0:
        problems.append("bare checkout: exit 0")
    if result_line(done.stdout) is not None:
        problems.append("bare checkout: printed a result line")
    return problems


# Known program defects that keep clean configs out of the workloads (see
# README.md, "Known program defects"): the workload, the `chipmunk fuzz`
# arguments that reproduce the defect, and the report kind it prints.
KNOWN_DEFECTS = [
    ("mt-isolation: clean winefs",
     ["winefs", "--threads", "4", "--isolation-window", "4", "--iterations",
      "150", "--seed", "7209551900739086044", "--schedule-seed",
      "9249945998164489712"], "isolation-violation"),
    ("fuzz-store-16m: clean winefs",
     ["winefs", "--iterations", "24", "--seed", "7438270762617156125"],
     "atomicity"),
    ("fuzz-store-16m: clean splitfs",
     ["splitfs", "--iterations", "12", "--seed", "16097155060499043469"],
     "atomicity"),
    ("fuzz-store-16m: clean ext4dax",
     ["ext4dax", "--iterations", "24", "--seed", "4315688109810222301"],
     "synchrony"),
]


def check_known_defects():
    """The defects that keep clean configs out of the workloads still show.

    Builds the chipmunk CLI in the benchmark's build directory and runs each
    reproduction. Once the program is fixed, the check for that defect fails,
    as a reminder to put the config back into its workload (MakeSpec in
    workloads.cc) and to drop the entry from KNOWN_DEFECTS.
    """
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                             ".bench_build", "perfbench")
    built = subprocess.run(
        ["cmake", "--build", build_dir, "--target", "chipmunk", "-j", "4"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=900, check=False)
    if built.returncode != 0:
        return [f"known defects: building the chipmunk CLI failed\n"
                f"{built.stdout[-2000:]}"]
    cli = os.path.join(build_dir, "chipmunk_src", "tools", "chipmunk")
    problems = []
    for where, args, kind in KNOWN_DEFECTS:
        done = subprocess.run([cli, "fuzz"] + args, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=180, check=False)
        if done.returncode != 1 or kind not in done.stdout:
            problems.append(
                f"known defect fixed? {where} no longer reports {kind} "
                f"(exit {done.returncode}); put the config back into the "
                f"workload and drop it from KNOWN_DEFECTS")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, workload["name"], trace)
            status = "ok" if not found else "FAILED"
            print(f"{workload['name']} --trace {trace}: {status}")
            problems += found
    found = check_bare(spec)
    print(f"bare checkout fails without a result: "
          f"{'ok' if not found else 'FAILED'}")
    problems += found
    found = check_known_defects()
    print(f"known program defects still reproduce: "
          f"{'ok' if not found else 'FAILED'}")
    problems += found
    for problem in problems:
        print(problem)
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
