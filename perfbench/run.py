#!/usr/bin/env python3
"""Builds the perfbench program from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench). Build output goes to stderr; standard output
carries the program's report, whose last line is the JSON result. See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
RUN_TIMEOUT_S = 178


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-digest", type=int, choices=(0, 1), default=0,
                    help="flip a digest byte: the run must report failure")
    args = ap.parse_args()

    if not os.path.exists(os.path.join(REPO, "src", "megaphone",
                                       "megaphone.hpp")):
        print("perfbench: library sources (src/) not found next to "
              "perfbench/", file=sys.stderr)
        return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    try:
        build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1

    state_dir = os.path.join(build_dir, "state")
    shutil.rmtree(state_dir, ignore_errors=True)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload=%s" % args.workload, "--seed=%d" % args.seed,
           "--seconds=%g" % args.seconds, "--trace=%d" % args.trace,
           "--corrupt-digest=%d" % args.corrupt_digest,
           "--state-dir=%s" % state_dir]
    # A process group of its own, so a timeout can stop every process it
    # forked.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        print("perfbench: program exited with %d" % proc.returncode,
              file=sys.stderr)
        return 1
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stderr.write(out)
        print("perfbench: no result line", file=sys.stderr)
        return 1
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
