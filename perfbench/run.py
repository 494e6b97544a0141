#!/usr/bin/env python3
"""End-to-end benchmark entry point.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload kernels_cold --seed 1 --seconds 10 --trace 0

Builds the analyzer's libraries, the omega-serve daemon and the benchmark
binary from source (CMake, Release, into $CARGO_TARGET_DIR/perfbench or
.bench_build/perfbench), then runs one workload. The binary's last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. Build output goes to standard error.

Exits non-zero without printing a result when the analyzer sources are
missing, the build fails, or the benchmark binary fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("kernels_cold", "random_nests", "serve_edit_stream",
             "calc_queries")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build(bench_dir, build_dir):
    """Configures once, then lets the build tool decide what is stale."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", bench_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            fail("cmake configure failed")
    if subprocess.call(["cmake", "--build", build_dir, "-j", jobs],
                       stdout=sys.stderr) != 0:
        fail("build failed")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--canary", action="store_true",
                        help="feed one deliberately wrong answer to the "
                             "reference check (it must be caught)")
    args = parser.parse_args()

    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("run from the repository root: src/CMakeLists.txt not found")
    if not os.path.isdir(os.path.join(root, "tests", "corpus", "edits")):
        fail("tests/corpus/edits not found")

    # Relative paths keep the server's Unix socket path short.
    out = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(out, "perfbench")
    build(bench_dir, build_dir)
    work_dir = os.path.join(build_dir, "work")
    os.makedirs(work_dir, exist_ok=True)
    if os.path.isabs(work_dir):
        work_dir = os.path.relpath(work_dir, root)

    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--root", ".",
           "--serve-bin", os.path.join(build_dir, "omega-serve"),
           "--work-dir", work_dir]
    if args.canary:
        cmd.append("--canary")
    sys.exit(subprocess.call(cmd))


if __name__ == "__main__":
    main()
