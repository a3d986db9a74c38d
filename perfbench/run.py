#!/usr/bin/env python3
"""Build and run the actjoin repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <n> --trace <0|1>
    python3 perfbench/run.py --test

Run from the root of a checkout. The first call configures and builds the
perfbench CMake package (perfbench/CMakeLists.txt, which compiles ../src in
Release) into .bench_build/perfbench; later calls rebuild incrementally.
Build output goes to stderr, so the benchmark's last stdout line is its JSON
result. --test builds and runs the benchmark's own arithmetic tests instead.
Exits non-zero if the sources are missing, the build fails, or the run
reports a failure.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "perfbench-spans")
WORKLOADS = [
    "taxi_nbhd_approx",
    "uniform_census_exact",
    "fleet_geofence",
    "xmatch_boroughs_census",
]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    return 2


def source_id():
    """The git commit when the checkout is a git work tree, else a digest of
    the sources the benchmark builds (src/ and perfbench/)."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(targets):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", *targets])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            return fail("build step failed: %s" % e)
        if done.returncode != 0:
            return fail("build step failed: " + " ".join(cmd))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--test", action="store_true",
                    help="build and run the benchmark's arithmetic tests")
    args = ap.parse_args()
    if not args.test and args.workload is None:
        return fail("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return fail("actjoin sources not found next to perfbench/ (expected %s)"
                    % os.path.join(ROOT, "src"))

    target = "perfbench_test" if args.test else "perfbench"
    if build([target]) != 0:
        return 2
    binary = os.path.join(BUILD_DIR, target)
    if not os.path.isfile(binary):
        return fail("%s was not built (is GoogleTest installed?)" % target)
    if args.test:
        return subprocess.run([binary], timeout=RUN_TIMEOUT_S).returncode

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", source_id(), "--out_dir", SPANS_DIR]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return fail("run exceeded %d s" % RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
