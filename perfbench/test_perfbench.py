#!/usr/bin/env python3
"""Tests of the session churn benchmark itself.

    python3 perfbench/test_perfbench.py

Builds the benchmark (see run.py), then checks that a seed reproduces its
generated stream byte for byte, that two runs report identical exact counts,
that the oracle check flags a deliberately perturbed row, and that a failed
mixed-batch probe operation counts in the result line.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ["reach-churn-absorption", "reach-churn-dred",
             "reach-churn-dred-4shard", "session-mixed", "session-mixed-4shard"]

# Metrics that count work rather than time it: equal on every run of a seed.
EXACT = re.compile(r"^(msgs_per_update|comm_kb_per_update|state_mb|"
                   r"prov_bytes_per_tuple|net\.(?!drain)|operators\.|"
                   r"provenance\.|bdd\.|persist\.snapshot_mb)")


def churnbench(*args):
    with tempfile.TemporaryDirectory() as workdir:
        return subprocess.run([run.BINARY, "--workdir", workdir] + list(args),
                              capture_output=True, text=True)


def exact_counts(stdout):
    counts = {}
    for line in stdout.splitlines():
        fields = line.split()
        if len(fields) >= 3 and fields[0] in ("metric", "layer") and EXACT.match(fields[1]):
            counts[fields[1]] = fields[2]
    return counts


class PerfbenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("benchmark build failed")

    def test_same_seed_gives_byte_identical_stream(self):
        for workload in WORKLOADS:
            first = churnbench("--workload", workload, "--seed", "7", "--dump-stream")
            again = churnbench("--workload", workload, "--seed", "7", "--dump-stream")
            other = churnbench("--workload", workload, "--seed", "8", "--dump-stream")
            self.assertEqual(first.returncode, 0, first.stderr)
            self.assertGreater(len(first.stdout), 1000)
            self.assertEqual(first.stdout, again.stdout, workload)
            self.assertNotEqual(first.stdout, other.stdout, workload)

    def test_two_runs_report_identical_exact_counts(self):
        for workload in ("reach-churn-absorption", "reach-churn-dred-4shard"):
            args = ("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", "1", "--episodes", "1")
            first, again = churnbench(*args), churnbench(*args)
            self.assertEqual(first.returncode, 0, first.stdout + first.stderr)
            self.assertEqual(again.returncode, 0, again.stdout + again.stderr)
            counts = exact_counts(first.stdout)
            self.assertIn("msgs_per_update", counts)
            self.assertIn("bdd.live_nodes_peak", counts)
            self.assertEqual(counts, exact_counts(again.stdout), workload)

    def test_oracle_flags_perturbed_row(self):
        out = churnbench("--workload", "reach-churn-dred", "--seed", "1",
                         "--seconds", "1", "--trace", "0", "--episodes", "1",
                         "--perturb")
        self.assertEqual(out.returncode, 1, out.stdout)
        self.assertIn("# ERROR:", out.stdout)
        self.assertIn('"correct": false', out.stdout.splitlines()[-1])

    def test_result_line_is_last_and_complete(self):
        out = churnbench("--workload", "reach-churn-dred", "--seed", "2",
                         "--seconds", "1", "--trace", "0", "--episodes", "1")
        self.assertEqual(out.returncode, 0, out.stdout)
        last = out.stdout.splitlines()[-1]
        for key in ('"correct": true', '"attempted":', '"failed": 0',
                    '"setup_s"', '"apply_tail_ms"', '"peak_rss_mb"'):
            self.assertIn(key, last)

    def test_probe_failures_count_in_result_line(self):
        # With one episode, the probe's budget (8 x that episode's largest
        # single-change Apply) is too small for the probe's own set-up Apply:
        # a failed operation in the result line, but not a wrong answer.
        out = churnbench("--workload", "reach-churn-absorption", "--seed", "3",
                         "--seconds", "1", "--trace", "0", "--episodes", "1")
        self.assertEqual(out.returncode, 0, out.stdout)
        self.assertIn("set-up failed", out.stdout)
        result = json.loads(out.stdout.splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 1)

    def test_usage_errors_exit_2(self):
        self.assertEqual(churnbench("--workload", "nope", "--seed", "1").returncode, 2)
        self.assertEqual(churnbench("--workload", WORKLOADS[0], "--seed", "x").returncode, 2)
        self.assertEqual(churnbench("--bogus").returncode, 2)


if __name__ == "__main__":
    unittest.main()
