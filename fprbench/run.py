#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 fprbench/run.py --workload study|trace|pareto|all --seed N \
        --seconds S --trace 0|1 [--kernel-seed N] [--record-seed N] \
        [--search-seed N]
    python3 fprbench/run.py --self-test

`--workload all` runs the three workloads one after another, each
report in turn, and exits with the largest of their exit codes.

The first call configures and builds the `fpr` CLI and the `fprbench`
runner from source into the build directory ($CARGO_TARGET_DIR, else
.bench_build); later calls rebuild only what changed. Build output goes
to stderr, so the runner's report is all of stdout and its last line is
the JSON result. The exit code is the runner's: 0 when every output
check passed.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["study", "trace", "pareto"]


def build(build_dir):
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", "4"],
                   stdout=sys.stderr, check=True)


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"fprbench: build failed: {e}", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if args == ["--self-test"]:
        return subprocess.run([os.path.join(build_dir, "fprbench_selftest")]).returncode
    runner = [os.path.join(build_dir, "fprbench"),
              "--work-dir", os.path.join(build_dir, "work")]
    at = args.index("--workload") + 1 if "--workload" in args else len(args)
    if args[at:at + 1] == ["all"]:
        return max(subprocess.run(runner + args[:at] + [w] + args[at + 1:]).returncode
                   for w in WORKLOADS)
    return subprocess.run(runner + args).returncode


if __name__ == "__main__":
    sys.exit(main())
