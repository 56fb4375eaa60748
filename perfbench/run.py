#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload serve-online --seed 1 --seconds 36 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (the library sources under src/ plus hdc_perfbench) into
.bench_build/ with CMake; later runs rebuild only what changed. Build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result. Exits non-zero without a result when the build
fails, e.g. when the library sources are missing.
"""

import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD_DIR, "hdc_perfbench")
WORKLOADS = ("serve-online", "fleet-skewed", "train-bagged")


def parse_args():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    p.add_argument("--scale", default="full", choices=("full", "tiny"),
                   help="tiny shrinks every workload for a smoke check")
    return p.parse_args()


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        configure += ["-G", "Ninja"]
    for cmd in (configure, ["cmake", "--build", BUILD_DIR, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return os.path.exists(BINARY)


def revision():
    """The checked-out commit, read from .git inside the repository only."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def main():
    args = parse_args()
    if not build():
        print("error: benchmark build failed", file=sys.stderr)
        return 1
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace, "--scale", args.scale,
           "--revision", revision()]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
