#!/usr/bin/env python3
"""Build the live payment benchmark from this checkout's sources, check
its harness arithmetic, then run one workload.

    python3 paybench/run.py --workload pay_steady --seed 1 --seconds 20 --trace 0

Workloads: pay_steady, pay_heavy, pay_durable (see paybench/paybench.cpp).
The build and the nodes' working files go to $CARGO_TARGET_DIR, default
.bench_build at the root of the checkout. Build output goes to stderr, so
the last line of stdout is the benchmark's JSON result. Exits non-zero
without a result when the sources cannot be built, the harness tests
fail, or the correctness gate fails.
"""
import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build):
        build = os.path.join(root, build)

    def step(cmd):
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode

    if step(["cmake", "-S", here, "-B", build,
             "-DCMAKE_BUILD_TYPE=Release"]) != 0:
        return 1
    jobs = str(min(4, os.cpu_count() or 1))
    if step(["cmake", "--build", build, "-j", jobs]) != 0:
        return 1
    if step([os.path.join(build, "paybench_harness_test")]) != 0:
        return 1
    sys.stdout.flush()
    return subprocess.run(
        [os.path.join(build, "paybench"), *sys.argv[1:],
         "--dir", os.path.join(build, "runs")]).returncode


if __name__ == "__main__":
    sys.exit(main())
