#!/usr/bin/env python3
"""Repeat runner: runs every workload on several seeds and summarizes.

    python3 perfbench/repeat.py [--seeds 1,2,3,4,5] [--held-out 1009]
                                [--seconds 15] [--workloads a,b]

For each workload, runs the benchmark once per seed with tracing off and
prints each end-to-end metric's median, quartiles and spread (IQR / median,
as statistics.quantiles(n=4) gives them); then one run on the held-out seed,
reported on its own so later claims can be checked on a seed not used while
writing them; then one traced run on the first seed, giving the per-layer
metrics and the tracing overhead (the traced run's loop throughput against
the untraced median). Runs are sequential. Every block is stamped with the
host record the benchmark prints (nproc, CPU model, compiler, build type,
commit).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["reach-churn-absorption", "reach-churn-dred",
             "reach-churn-dred-4shard", "session-mixed", "session-mixed-4shard"]


def run_once(workload, seed, seconds, trace):
    """Returns (host line, {metric: value}, result dict) of one run."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (exit %d):\n%s%s" % (
            workload, seed, out.returncode, out.stdout, out.stderr))
    host, values = "", {}
    for line in lines:
        fields = line.split()
        if line.startswith("# host "):
            host = line[2:]
        elif len(fields) >= 4 and fields[0] in ("metric", "layer"):
            values[fields[1]] = (float(fields[2]), fields[3])
    return host, values, json.loads(lines[-1])


def summarize(runs):
    """Rows of (metric, unit, median, q1, q3, spread) over `runs`."""
    rows = []
    for name in runs[0]:
        vals = [r[name][0] for r in runs if name in r]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        rows.append((name, runs[0][name][1], med, q1, q3, spread))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3,4,5")
    parser.add_argument("--held-out", type=int, default=1009)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    for workload in args.workloads.split(","):
        runs, host = [], ""
        for seed in seeds:
            host, values, result = run_once(workload, seed, args.seconds, 0)
            if not result["correct"]:
                print("%s seed %d: outputs differ from the oracle" % (workload, seed))
            runs.append(values)
        print("== %s  (%d seeds: %s)\n   %s" % (workload, len(seeds), args.seeds, host))
        print("   %-22s %-6s %12s %12s %12s %7s" % ("metric", "unit", "median", "q1", "q3", "spread"))
        for name, unit, med, q1, q3, spread in summarize(runs):
            print("   %-22s %-6s %12.6g %12.6g %12.6g %7.3f" % (name, unit, med, q1, q3, spread))
        _, held, _ = run_once(workload, args.held_out, args.seconds, 0)
        print("   held-out seed %d: %s" % (args.held_out, "  ".join(
            "%s=%.6g" % (k, v[0]) for k, v in held.items())))
        _, traced, _ = run_once(workload, seeds[0], args.seconds, 1)
        untraced = statistics.median(r["updates_per_s"][0] for r in runs)
        print("   tracing overhead: updates_per_s %.6g traced vs %.6g untraced median "
              "(%+.1f%%); span recording %.4f%% of the loop" % (
                  traced["updates_per_s"][0], untraced,
                  100.0 * (untraced - traced["updates_per_s"][0]) / untraced,
                  traced.get("trace.overhead_pct", (0.0, ""))[0]))
        for name, (value, unit) in traced.items():
            if "." in name:
                print("   layer %-32s %12.6g %s" % (name, value, unit))
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
