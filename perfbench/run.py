#!/usr/bin/env python3
"""Builds and runs the session churn benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the library sources under src/ plus the churnbench program) as a
Release build in .bench_build/perfbench, then runs one workload. Build
output goes to stderr; the last line of stdout is the benchmark's JSON
result. Exits non-zero, without a result line, when the build fails (for
instance when the library sources are missing).
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "churnbench")


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return os.path.exists(BINARY)


def commit():
    """The checkout's git commit, or "unknown" outside a git work tree."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    workdir = os.path.join(BUILD, "run-%d" % os.getpid())
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir, "--commit", commit()]
    try:
        return subprocess.run(cmd).returncode
    finally:
        # Keep the trace file of a traced run; drop everything else.
        if os.path.isdir(workdir):
            for name in os.listdir(workdir):
                if not name.startswith("trace-"):
                    os.remove(os.path.join(workdir, name))
            if not os.listdir(workdir):
                os.rmdir(workdir)


if __name__ == "__main__":
    sys.exit(main())
