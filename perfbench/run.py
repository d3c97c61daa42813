#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload inproc-paper-mix --seed 1 \
        --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds the library and the benchmark (CMake,
Release) under .bench_build/perfbench; later calls rebuild incrementally.
The measuring program prints a details line and, as the last line of
standard output, one JSON object with the keys correct, attempted, failed
and metrics (end-to-end metrics with --trace 0, per-layer ones with
--trace 1). The exit code is the program's: 0 when every answer was
correct.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest():
    """sha256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    digest = hashlib.sha256()
    for top in (os.path.join(ROOT, "src"), os.path.join(HERE, "src")):
        for directory, _, files in sorted(os.walk(top)):
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    started = time.monotonic()
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    command = ["cmake", "--build", BUILD, "-j", jobs, "--target",
               "perfbench", "perfbench_selftest"]
    if subprocess.run(command, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return time.monotonic() - started


def selftest():
    """Runs the self-test binary, then checks that every workload reports
    exactly the metrics BENCHMARK.json names."""
    run = subprocess.run([os.path.join(BUILD, "perfbench_selftest")],
                         stdout=subprocess.PIPE, text=True)
    if run.returncode != 0:
        return run.returncode
    reported = json.loads(run.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expected = {"0": [m["name"] for m in spec["end_to_end"]],
                "1": [m["name"] for m in spec["per_layer"]]}
    ok = True
    for workload in spec["workloads"]:
        for trace, names in expected.items():
            got = reported.get(f"{workload['name']}/{trace}")
            if got is None or sorted(got) != sorted(names):
                print(f"FAIL: {workload['name']} --trace {trace} reports "
                      f"{got}, BENCHMARK.json names {names}", file=sys.stderr)
                ok = False
    print("selftest: metric names match BENCHMARK.json" if ok else
          "selftest: metric names differ from BENCHMARK.json")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's own self-test and exit")
    args = parser.parse_args()

    build_s = build()
    if args.selftest:
        sys.exit(selftest())
    if args.workload is None or args.seed is None or args.seconds is None:
        fail("--workload, --seed and --seconds are required")

    print(json.dumps({"build_s": build_s,
                      "source_digest": source_digest()}), flush=True)
    command = [os.path.join(BUILD, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode not in (0, 1) or not lines:
        fail(f"measuring program exited with {run.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result line")
    print("\n".join(lines), flush=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
