#!/usr/bin/env python3
"""Sensitivity self-check: does the benchmark see a change in one layer?

    python3 perfbench/sensitivity.py [--pairs 5] [--seconds 10]

Two perturbations, both made only through the benchmark's own options:

1. --slow-put-delay-us: the benchmark's decorator over the slow store
   (IndexedDbKv) busy-waits a fixed host time in every put. Predicted:
   fs-write/ops_per_s drops; jvm, fs-read and serve stay within their
   bounds (jvm and serve have no slow store, and fs-read flushes only
   while the loop drains between passes, outside its ops).
2. --exec-profile baseline: every jvm launch runs with the interpreter's
   optimizations off. Predicted: jvm/ops_per_s drops.

For each workload it runs unperturbed and perturbed runs in adjacent
pairs, with a fresh seed per pair, and prints both medians of ops_per_s,
iqm_ms and tail_ms, the median of the per-pair ratios, and whether that
change exceeds the metric's bound. Exits 1 if a prediction fails. Run it
from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
METRICS = ("ops_per_s", "iqm_ms", "tail_ms")


def run(workload, seed, seconds, extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"] + extra
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        raise SystemExit("%s %s exited %d" % (workload, extra,
                                              done.returncode))
    r = json.loads(done.stdout.strip().splitlines()[-1])
    if not r["correct"]:
        raise SystemExit("%s %s: incorrect output" % (workload, extra))
    return {m: r["metrics"][m]["value"] for m in METRICS}


def compare(workload, extra, pairs, seconds, bounds):
    """Runs adjacent unperturbed/perturbed pairs (alternating which runs
    first) and compares them pair by pair: the host's speed drifts in
    phases of tens of seconds, which adjacent runs share."""
    base, pert = [], []
    for i in range(pairs):
        seed = 1000 + i
        order = [(base, []), (pert, extra)]
        if i % 2:
            order.reverse()
        for sink, flags in order:
            sink.append(run(workload, seed, seconds, flags))
    out = {}
    for m in METRICS:
        ratios = [p[m] / b[m] for b, p in zip(base, pert)]
        ratio = statistics.median(ratios)
        worse = (1 - ratio) if m == "ops_per_s" else (ratio - 1)
        out[m] = {"base": statistics.median(x[m] for x in base),
                  "perturbed": statistics.median(x[m] for x in pert),
                  "ratio": ratio, "pair_ratios": ratios,
                  "beyond_bound": worse > bounds[m]}
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--delay-us", type=int, default=300)
    a = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    delay = ["--slow-put-delay-us", str(a.delay_us)]
    # (perturbation, workload, flags, predicted: ops_per_s drops beyond
    # its bound)
    checks = [("slow-put-delay", w, delay, w == "fs-write")
              for w in ("fs-write", "fs-read", "jvm", "serve")]
    checks.append(("exec-profile-baseline", "jvm",
                   ["--exec-profile", "baseline"], True))
    ok = True
    report = []
    for name, w, flags, predicted in checks:
        r = compare(w, flags, a.pairs, a.seconds, bounds)
        moved = r["ops_per_s"]["beyond_bound"]
        held = predicted == moved and (
            predicted or not any(v["beyond_bound"] for v in r.values()))
        ok = ok and held
        report.append({"perturbation": name, "workload": w,
                       "predicted_drop": predicted, "as_predicted": held,
                       "metrics": r})
        print("%-22s %-9s %s" % (name, w, "as predicted" if held else
                                 "NOT as predicted"), flush=True)
        for m, v in r.items():
            print("    %-10s base %-12.6g perturbed %-12.6g ratio %.3f "
                  "(pairs %s)%s" %
                  (m, v["base"], v["perturbed"], v["ratio"],
                   " ".join("%.2f" % r for r in v["pair_ratios"]),
                   "  beyond bound" if v["beyond_bound"] else ""),
                  flush=True)
    print(json.dumps(report))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
