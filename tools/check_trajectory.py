#!/usr/bin/env python3
"""CI gate: a fresh benchmark run must reproduce a committed trajectory.

Compares the traffic counters of FRESH (a JSON document a bench just wrote
with --json) against COMMITTED (the BENCH_*.json checked into the repo),
cell by cell. Cells are matched on (block, series, x, shards, spec); for
every matched pair the fields messages, kill_messages, batches and
converged must be equal. A cell present in one file but not the other, or a
field present in one cell but not its partner, is a failure too. Wall times
and other host-dependent fields are ignored.

Usage: check_trajectory.py FRESH COMMITTED
Exit codes: 0 identical, 1 differences, 2 bad input.
"""

import json
import sys

FIELDS = ("messages", "kill_messages", "batches", "converged")
# Top-level keys that are not lists of per-run cells.
_SKIP_KEYS = {"meta"}


def load_cells(path):
    with open(path) as f:
        doc = json.load(f)
    default_shards = doc.get("shards")
    cells = {}
    for block, entries in doc.items():
        if block in _SKIP_KEYS or not isinstance(entries, list):
            continue
        for cell in entries:
            if not isinstance(cell, dict):
                continue
            key = (block, cell.get("series"), cell.get("x"),
                   cell.get("shards", default_shards), cell.get("spec"))
            if key in cells:
                raise ValueError(f"{path}: duplicate cell {key}")
            cells[key] = cell
    if not cells:
        raise ValueError(f"{path} contains no cell blocks")
    return cells


def describe(key):
    block, series, x, shards, spec = key
    parts = [block, f"series={series}"]
    if x is not None:
        parts.append(f"x={x}")
    parts.append(f"shards={shards}")
    if spec is not None:
        parts.append(f"spec={spec}")
    return " ".join(parts)


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    fresh_path, committed_path = argv
    try:
        fresh = load_cells(fresh_path)
        committed = load_cells(committed_path)
    except (OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    failures = []
    for key in sorted(set(fresh) | set(committed), key=repr):
        if key not in fresh:
            failures.append(f"missing from {fresh_path}: {describe(key)}")
            continue
        if key not in committed:
            failures.append(f"missing from {committed_path}: {describe(key)}")
            continue
        for field in FIELDS:
            a = fresh[key].get(field)
            b = committed[key].get(field)
            if a != b:
                failures.append(f"{describe(key)}: {field} fresh={a} "
                                f"committed={b}")
    if failures:
        print(f"{len(failures)} trajectory difference(s) between "
              f"{fresh_path} and {committed_path}:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    print(f"{fresh_path}: all {len(committed)} cells match {committed_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
