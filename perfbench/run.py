#!/usr/bin/env python3
"""Builds the FEWNER benchmark from source and runs one workload.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload adapt_5shot --seed 1 --seconds 10 --trace 0

The build tree goes to $CARGO_TARGET_DIR (default: .bench_build) under the
current directory; build output goes to stderr.  Reports and span files land
in <build tree>/results.  Stdout is the benchmark's own output, whose last
line is the JSON result {"correct", "attempted", "failed", "metrics"}.  Any
build or run failure exits non-zero without printing a result.
"""

import argparse
import json
import os
import subprocess
import sys

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(source_dir, build_dir):
    """Configures and builds the perfbench target; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (
        ["cmake", "-S", source_dir, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["meta_train", "adapt_5shot", "serve_docs"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_root = os.path.join(os.getcwd(),
                              os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(source_dir, os.path.join(build_root, "perfbench"))
    except RuntimeError as err:
        print(err, file=sys.stderr)
        return 2

    results = os.path.join(build_root, "results")
    os.makedirs(results, exist_ok=True)
    proc = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", repr(args.seconds), "--trace", str(args.trace),
         "--out-dir", results],
        stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print("perfbench exited with code %d" % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(proc.stdout)
        print("perfbench printed no result line", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
