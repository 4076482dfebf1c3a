#!/usr/bin/env python3
"""Build and run the LLMPrism repository benchmark.

Usage (from the repository root):

    python3 prismbench/run.py --workload fleet-2880 --seed 1 --seconds 20 --trace 0

Configures and builds prismbench/ (which compiles the library sources of
this checkout) into .bench_build/cmake on first use, then runs one
measurement. Build output goes to stderr; the benchmark's metric table and,
as the last stdout line, its JSON result go to stdout. Exits nonzero,
without a result, when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("fleet-2880", "bigjob-faults", "stream-churn")


def build(bench_dir, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    return subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                           stdout=sys.stderr) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    out_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(out_dir, "cmake")
    # Relative, so the daemon's Unix socket paths stay short.
    work_dir = os.path.relpath(os.path.join(out_dir, "work"))
    if not build(bench_dir, build_dir):
        print("prismbench: build failed", file=sys.stderr)
        return 1
    sys.stdout.flush()
    return subprocess.call([
        os.path.join(build_dir, "prismbench"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--workdir", work_dir])


if __name__ == "__main__":
    sys.exit(main())
