#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Usage (from the repository root):
  python3 perfbench/run.py --workload serve_chat --seed 1 --seconds 20 --trace 0

The build goes to .bench_build/ at the repository root (CMake project in
perfbench/, Release). The benchmark's own stdout passes through unchanged;
its last line is the JSON result. Build output goes to stderr. Trace files,
per-layer tables and the result records (results.ndjson) are written to
.bench_build/results/.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(BUILD_DIR, "results")
WORKLOADS = ("serve_chat", "serve_burst", "paper_pipeline")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def source_revision():
    """The git commit of ROOT, or a digest of src/ when ROOT is no checkout."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if len(top) == 2 and os.path.realpath(top[0]) == os.path.realpath(ROOT):
            return top[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, _, files in sorted(os.walk(src)):
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return "src-sha256-" + digest.hexdigest()[:16]


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"),
                      "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, check=True,
                       timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no library sources under " + ROOT + "/src",
              file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.SubprocessError) as error:
        print("perfbench: build failed: " + str(error), file=sys.stderr)
        return 2
    command = [
        binary,
        "--workload=" + args.workload,
        "--seed=" + str(args.seed),
        "--seconds=" + repr(args.seconds),
        "--trace=" + str(args.trace),
        "--out_dir=" + OUT_DIR,
        "--git_rev=" + source_revision(),
    ]
    try:
        return subprocess.run(command, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
