#!/usr/bin/env python3
"""Repository benchmark of failmine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

builds the failmine libraries of this checkout and the benchmark driver
(CMake, RelWithDebInfo, into .bench_build/perfbench; the first run
compiles, later runs only check), then runs one workload: the driver
generates the input from the seed, repeats the workload for S seconds,
checks every answer and prints each metric with its unit. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics; the exit code is 0 only if every answer was correct. --trace 0
reports the end-to-end metrics, --trace 1 the per-layer ones. The
workloads and both metric lists are described in driver/main.cpp.

    python3 perfbench/run.py --self-test

builds and runs the tests of the benchmark's own helpers.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "perfbench-work")
WORKLOADS = ("batch_row", "batch_columnar", "stream_ordered", "stream_shuffled")
# Headroom past --seconds for set-up, the warm-up repetition and the
# overrun of the last repetition; a run must end within three minutes.
DRIVER_GRACE_SECONDS = 150


def build(target):
    """Configures the build tree once, then brings `target` up to date."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "--target", target,
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, target)


def source_id():
    """Names the code under test: the git commit when the checkout is a
    repository, and always a digest of the sources the build reads."""
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = sorted(os.path.join(d, f)
                           for d, _, names in os.walk(path) for f in names)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    commit = "none"
    if os.path.exists(os.path.join(ROOT, ".git")):
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            commit = out.stdout.strip()
    return "git:%s,src:%s" % (commit, digest.hexdigest()[:16])


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test:
        if args.workload is None or args.seed is None or args.seconds is None:
            parser.error("--workload, --seed and --seconds are required")
        if args.seed < 0 or args.seconds < 1:
            parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        binary = build("perfbench_tests" if args.self_test else "perfbench_driver")
    except (OSError, subprocess.CalledProcessError) as err:
        print("[perfbench] build failed: %s" % err, file=sys.stderr)
        return 2
    if args.self_test:
        return subprocess.run([binary]).returncode

    os.makedirs(WORK_DIR, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK_DIR, "--source-id", source_id()]
    try:
        return subprocess.run(
            command, timeout=args.seconds + DRIVER_GRACE_SECONDS).returncode
    except subprocess.TimeoutExpired:
        print("[perfbench] the driver ran out of time", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
