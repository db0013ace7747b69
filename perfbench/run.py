#!/usr/bin/env python3
"""Builds the benchmark program from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload kernels --seed 1 --seconds 30 --trace 0

The program is built with CMake into `$CARGO_TARGET_DIR/perfbench` (default
`.bench_build/perfbench`); the first call configures and compiles, later
calls only re-check the build. Build output goes to stderr so that the last
line of stdout is the program's JSON result. Exits nonzero, without printing
a result, when the sources or the build are missing or broken.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("kernels", "tune_cold", "serving")


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                          stdout=sys.stderr, stderr=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(root, target)
    build_dir = os.path.join(target, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    try:
        built = build(root, build_dir)
    except OSError as err:  # cmake or a compiler is missing
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2
    if not built:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(target, f"host_trace_{args.workload}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
