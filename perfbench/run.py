#!/usr/bin/env python3
"""Builds the benchmark (Release) from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --unit-tests

Run from the root of the repository. The build tree is $CARGO_TARGET_DIR
(default .bench_build) and generated inputs go under .bench_work; both stay
inside the checkout. Build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. See perfbench/README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("fleet_week", "confidence_month", "serve_open", "monitor_drift")
RUN_TIMEOUT_S = 170


def build(root, build_dir, target):
    source = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", source, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", target, "-j",
         str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--unit-tests", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()
    if not args.unit_tests and args.workload is None:
        parser.error("--workload is required")

    root = os.getcwd()
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    target = "perfbench_tests" if args.unit_tests else "perfbench"
    try:
        binary = build(root, build_dir, target)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"run.py: build failed: {error}", file=sys.stderr)
        return 1
    if args.unit_tests:
        return subprocess.run([binary]).returncode

    work_dir = os.path.join(root, ".bench_work",
                            f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        result = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", work_dir],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 1
    finally:
        # Generated inputs are deleted; only a traced run's span dump stays.
        if args.trace:
            for name in ("fleet", "confidence", "serve", "monitor"):
                shutil.rmtree(os.path.join(work_dir, name), ignore_errors=True)
        else:
            shutil.rmtree(work_dir, ignore_errors=True)
    sys.stdout.write(result.stdout)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
