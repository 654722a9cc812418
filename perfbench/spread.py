#!/usr/bin/env python3
"""Measures the benchmark's run-to-run spread.

    python3 perfbench/spread.py [--workloads jvm,serve] [--seeds 10]
        [--first-seed 1] [--seconds N] [-- extra perfbench flags]

Runs perfbench/run.py once per seed on each workload (untraced) and
prints, per end-to-end metric, the median and the interquartile range as
a share of the median, as statistics.quantiles(values, n=4) gives them,
next to the metric's bound from BENCHMARK.json. Exits 1 if any run is
incorrect. Run it from the root of a checkout.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"] + extra
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        raise SystemExit("%s seed %d exited %d" % (workload, seed,
                                                   done.returncode))
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("extra", nargs="*")
    a = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w in a.workloads.split(","):
        values = {}
        for seed in range(a.first_seed, a.first_seed + a.seeds):
            r = run_once(w, seed, a.seconds, a.extra)
            ok = ok and r["correct"] and r["failed"] == 0
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med] * 3
            spread = (q[2] - q[0]) / med if med else 0.0
            print("%-9s %-12s median %-12.6g spread %6.3f bound %.2f %s" %
                  (w, name, med, spread, bounds.get(name, 0),
                   " ".join("%.6g" % v for v in vs)), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
