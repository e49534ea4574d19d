#!/usr/bin/env python3
"""End-to-end benchmark of the Chronos stack: one command per workload.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --self-check [--seconds S]

Run from the repository root. Builds the benchmark binary (e2ebench/, a
CMake package compiling ../src) into $CARGO_TARGET_DIR or .bench_build,
runs the workload in its own process, and prints the binary's report. With
--trace 1 it also prints the per-layer self-time table of the traced units
(e2ebench/layers.py). The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 only when
every correctness, determinism and load-regime check passed.

--self-check runs every workload twice at the sizing seed (the simulated
outputs and plan decisions must be identical across the two processes) and
once at a held-out seed, and fails on any failed check. See README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import layers  # noqa: E402

WORKLOADS = ("open_sresume", "open_auto_dag", "sweep_fig3", "fabric_cells")
SIZING_SEED = 1
HELD_OUT_SEED = 20261017
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("e2ebench: " + message, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def build():
    """Configures (once) and builds the binary; returns its path."""
    for needed in ("src", os.path.join("manifests", "fig3_theta.ini")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("missing %s: run from a full checkout of the repository"
                 % needed)
    out = os.path.join(build_dir(), "e2ebench")
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", "4"])
    for step in steps:
        try:
            done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(step), 1)
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
            fail("build failed: " + " ".join(step), 1)
    return os.path.join(out, "e2ebench")


def run_workload(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (result dict, determinism, exit code)."""
    work = os.path.join(build_dir(), "work-%d" % os.getpid())
    trace_path = os.path.join(build_dir(), "traces",
                              "%s-seed%d.json" % (workload, seed))
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0",
               "--work-dir", os.path.relpath(work, ROOT)]
    if trace:
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
        command += ["--trace-out", trace_path]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S), 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.decode(errors="replace").splitlines()
    if not lines or not lines[-1].startswith("{"):
        if echo:
            print("\n".join(lines))
        fail("%s exited %d without a result" % (workload, done.returncode),
             1)
    result = json.loads(lines[-1])
    if echo:
        print("\n".join(lines[:-1]))
    determinism = result.pop("determinism")
    if trace:
        coverage = layers.report(trace_path, trace_path + ".counters.json")
        result["metrics"]["obs.trace_coverage"] = {
            "value": coverage, "unit": "fraction"}
        result["attempted"] += 1
        if coverage < layers.COVERAGE_FLOOR:
            result["failed"] += 1
            result["correct"] = False
    return result, determinism, done.returncode


def self_check(binary, seconds):
    problems = []
    for workload in WORKLOADS:
        runs = []
        for seed in (SIZING_SEED, SIZING_SEED, HELD_OUT_SEED):
            result, determinism, code = run_workload(
                binary, workload, seed, seconds, False, echo=False)
            ok = code == 0 and result["correct"] and result["failed"] == 0
            print("%-14s seed %-9d %s  %d checks, %d failed  outputs %s" % (
                workload, seed, "ok  " if ok else "FAIL",
                result["attempted"], result["failed"], determinism))
            if not ok:
                problems.append("%s seed %d failed checks" % (workload, seed))
            runs.append(determinism)
        if runs[0] != runs[1]:
            problems.append("%s: outputs differ across two runs at seed %d"
                            % (workload, SIZING_SEED))
    for problem in problems:
        print("self-check: " + problem, file=sys.stderr)
    print("self-check: %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args()
    if not args.self_check and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    binary = build()
    if args.self_check:
        return self_check(binary, args.seconds)
    result, determinism, code = run_workload(
        binary, args.workload, args.seed, args.seconds, args.trace == 1)
    print("determinism fingerprint: " + determinism)
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
