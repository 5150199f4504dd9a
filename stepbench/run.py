#!/usr/bin/env python3
"""Build and run the S3D++ step-loop benchmark.

Run from the root of a source checkout:

    python3 stepbench/run.py --workload lifted_1rank --seed 1 --seconds 10 --trace 0

Configures stepbench/ as a CMake project (which compiles the solver
libraries from ../src with the repository's own flags) into
$CARGO_TARGET_DIR/stepbench, default .bench_build/stepbench, builds
only the benchmark target, runs it, and repeats its last stdout line:
one JSON object with correct, attempted, failed and metrics. Build
output goes to stderr. Exits non-zero without a result when the
sources are missing, the build fails or the run fails.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840  # configure and build together
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"stepbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run(cmd, timeout, stdout):
    """Run cmd in its own process group; on timeout kill the whole group
    (a build's compiler processes too) and wait for it."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"exit {proc.returncode}: {' '.join(cmd)}")
    return out


def build():
    for need in ("CMakeLists.txt", os.path.join("src", "solver", "solver.hpp")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail(f"{need} not found under {ROOT}; run from a source checkout")
    target_dir = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target_dir, "stepbench")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run(["cmake", "-S", HERE, "-B", build_dir, *generator,
             "-DCMAKE_BUILD_TYPE=Release"], deadline - time.monotonic(),
            sys.stderr)
    # Few parallel jobs: the machine is shared, and -O3 solver TUs are big.
    run(["cmake", "--build", build_dir, "--target", "stepbench", "-j", "3"],
        max(1.0, deadline - time.monotonic()), sys.stderr)
    return os.path.join(build_dir, "stepbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    exe = build()
    out = run([exe, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)],
              RUN_TIMEOUT_S, subprocess.PIPE)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or \
            set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("the benchmark printed no result line")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
