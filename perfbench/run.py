#!/usr/bin/env python3
"""Builds and runs the ftlcoord benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload serve-small-frames --seed 1 \
        --seconds 10 --trace 0
    python3 perfbench/run.py --selftest      # unit tests of the benchmark

Each run configures/builds perfbench/ (Release) into $CARGO_TARGET_DIR or
.bench_build/, then runs ftlperf, whose last stdout line is the
JSON result. Build output goes to <build dir>/build.log.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("serve-small-frames", "serve-pair-flood", "fig4-sharded",
             "fig3-scaled")
RUN_TIMEOUT_S = 170
BUILD_TARGETS = ("ftlperf", "ftlcoordd", "ftlperf_test")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    for need in ("CMakeLists.txt", "src/CMakeLists.txt",
                 "tools/ftlcoordd/CMakeLists.txt",
                 "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, need)):
            fail("%s missing: run from the root of an ftlcoord checkout" % need)
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", os.path.join(root, "perfbench"),
                          "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j4", "--target"] +
                     list(BUILD_TARGETS))
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT)
            if rc != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build step failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the benchmark's unit tests")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    root = os.getcwd()
    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    build(root, build_dir)

    if args.selftest:
        return subprocess.call([os.path.join(build_dir, "ftlperf_test")])

    cmd = [os.path.join(build_dir, "ftlperf"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", os.path.join(build_dir, "ftl", "tools", "ftlcoordd",
                                    "ftlcoordd"),
           "--out-dir", build_dir]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("ftlperf exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
