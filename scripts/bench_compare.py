#!/usr/bin/env python3
"""Compares fresh BENCH_*.json files against a baseline set.

Usage: scripts/bench_compare.py <fresh_dir> <baseline_dir>

Every bench harness writes BENCH_<name>.json into its working directory.
Virtual-clock numbers are deterministic, so any difference in a `series`
row, a `gates` key or a `host` key between a fresh run and the baseline
is drift and fails the comparison. The only key exempt is the host time
in HOST_TIME_KEYS, which varies from run to run on any machine.

Each baseline file must have a fresh counterpart with the same rows (by
label, in order) and the same keys. Fresh files without a baseline are
reported but do not fail. Exit status: 0 when nothing drifted, 1
otherwise, 2 on bad arguments.
"""

import json
import pathlib
import sys

HOST_TIME_KEYS = {"table_seconds"}


def diff_metrics(where, fresh, base):
    """Yields one message per differing non-host-time key."""
    for key in sorted(set(fresh) | set(base)):
        if key in HOST_TIME_KEYS:
            continue
        if key not in fresh:
            yield f"{where}: {key} missing from the fresh run"
        elif key not in base:
            yield f"{where}: {key} missing from the baseline"
        elif fresh[key] != base[key]:
            yield f"{where}: {key} {base[key]} -> {fresh[key]}"


def compare(fresh_doc, base_doc, name):
    """Yields every drift between two BENCH documents."""
    for key in ("bench", "schema", "clock"):
        if fresh_doc.get(key) != base_doc.get(key):
            yield (f"{name}: {key} {base_doc.get(key)!r} -> "
                   f"{fresh_doc.get(key)!r}")
    fresh_rows = fresh_doc.get("series", [])
    base_rows = base_doc.get("series", [])
    fresh_labels = [r.get("label") for r in fresh_rows]
    base_labels = [r.get("label") for r in base_rows]
    if fresh_labels != base_labels:
        yield f"{name}: series labels {base_labels} -> {fresh_labels}"
    for fresh_row, base_row in zip(fresh_rows, base_rows):
        yield from diff_metrics(f"{name} [{base_row.get('label')}]",
                                fresh_row, base_row)
    for key in ("gates", "host"):
        yield from diff_metrics(f"{name} {key}", fresh_doc.get(key, {}),
                                base_doc.get(key, {}))


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    fresh_dir, base_dir = pathlib.Path(argv[1]), pathlib.Path(argv[2])
    base_files = sorted(base_dir.glob("BENCH_*.json"))
    if not base_files:
        print(f"no BENCH_*.json in {base_dir}", file=sys.stderr)
        return 2
    drift = []
    for base_path in base_files:
        fresh_path = fresh_dir / base_path.name
        if not fresh_path.exists():
            drift.append(f"{base_path.name}: no fresh run")
            continue
        with open(base_path) as f:
            base_doc = json.load(f)
        with open(fresh_path) as f:
            fresh_doc = json.load(f)
        drift.extend(compare(fresh_doc, base_doc, base_path.name))
    base_names = {p.name for p in base_files}
    for extra in sorted(fresh_dir.glob("BENCH_*.json")):
        if extra.name not in base_names:
            print(f"note: {extra.name} has no baseline")
    for line in drift:
        print(line)
    print(f"bench_compare: {len(base_files)} files, "
          f"{len(drift)} drifted values")
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
