#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py        (from the root of a checkout)

- The committed jvm reference outputs agree with facts computed here,
  independently of the code under test (digits of pi, the n-queens count,
  fib and tak, the binary-trees checksum, the delta-blue checksum), and
  the benchmark regenerates them unchanged.
- A short run of every workload is correct, with ok_ratio == 1, exactly
  the end-to-end metrics BENCHMARK.json declares, and ops_per_s and iqm_ms
  taken from at most a quarter of its blocks.
- A corrupted reference drives ok_ratio below 1 on every workload, and a
  sync that acknowledges without making data durable drives fs-write's
  ok_ratio below 1.
- A traced run reports exactly the declared per-layer metrics, and its
  per-layer self times sum to the op time within the tracing overhead.
- The benchmark refuses an overridden jvm execution profile, and fails
  without printing a result when the repository sources are absent.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, env=None, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py")]
    return subprocess.run(cmd + [str(a) for a in args], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def result(done):
    lines = done.stdout.strip().splitlines()
    details = json.loads(lines[-2])["details"] if len(lines) > 1 else {}
    return json.loads(lines[-1]), details


def short(workload, *extra, trace=0, seconds=1):
    done = bench("--workload", workload, "--seed", 7, "--seconds", seconds,
                 "--trace", trace, *extra)
    if done.returncode != 0:
        raise AssertionError("%s exited %d: %s" %
                             (workload, done.returncode, done.stderr[-2000:]))
    return result(done)


def int32(x):
    x &= 0xFFFFFFFF
    return x - (1 << 32) if x & 0x80000000 else x


def pi_digits(n):
    """The first n decimal digits of pi, by Machin's formula."""
    scale = 10 ** (n + 10)

    def arctan_inv(x):
        total, term, k, sign = 0, scale // x, 1, 1
        while term:
            total += sign * (term // k)
            term //= x * x
            k += 2
            sign = -sign
        return total

    pi = 16 * arctan_inv(5) - 4 * arctan_inv(239)
    return str(pi)[:n]


def queens(n):
    def place(row, cols, d1, d2):
        if row == n:
            return 1
        return sum(place(row + 1, cols | 1 << c, d1 | 1 << (row + c),
                         d2 | 1 << (row - c + n))
                   for c in range(n)
                   if not (cols >> c & 1 or d1 >> (row + c) & 1 or
                           d2 >> (row - c + n) & 1))
    return place(0, 0, 0, 0)


def fib(n):
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def tak(x, y, z, memo={}):
    if y >= x:
        return z
    key = (x, y, z)
    if key not in memo:
        memo[key] = tak(tak(x - 1, y, z), tak(y - 1, z, x), tak(z - 1, x, y))
    return memo[key]


def binary_trees(max_depth):
    def check(item, depth):
        if depth == 0:
            return item
        return item + check(2 * item - 1, depth - 1) - check(2 * item,
                                                             depth - 1)
    total = 0
    for depth in range(4, max_depth + 1, 2):
        for i in range(1 << (max_depth - depth + 4)):
            total = int32(total + check(i, depth))
    return total


def delta_blue(length, iterations):
    checksum = 0
    for it in range(iterations):
        v = it
        for i in range(length):
            if i & 1:
                v = int32(v * 2 + 1)
        checksum ^= v
    return int32(checksum)


class ReferenceFacts(unittest.TestCase):
    def read(self, name):
        with open(os.path.join(EXPECTED, name)) as f:
            return f.read().split()

    def test_pidigits(self):
        self.assertEqual(self.read("pidigits-140.txt"), [pi_digits(140)])

    def test_nqueens(self):
        self.assertEqual(queens(9), 352)
        self.assertEqual(self.read("nqueens-9.txt"), ["352"])

    def test_recursive(self):
        self.assertEqual(self.read("recursive-21-6.txt"),
                         [str(fib(21)), str(tak(18, 12, 6))])

    def test_binarytrees(self):
        self.assertEqual(self.read("binarytrees-8.txt"),
                         [str(binary_trees(8))])

    def test_deltablue(self):
        self.assertEqual(self.read("deltablue-40-1501.txt"),
                         [str(delta_blue(40, 1501))])

    def test_references_regenerate(self):
        # classdump and minicompile have no closed form; their references
        # are the output on which the measured, native and baseline
        # executions agree, and must regenerate unchanged.
        with tempfile.TemporaryDirectory() as tmp:
            done = bench("--dump-outputs", "--expected-dir", tmp)
            self.assertEqual(done.returncode, 0, done.stderr[-2000:])
            for name in sorted(os.listdir(EXPECTED)):
                with open(os.path.join(EXPECTED, name), "rb") as a, \
                        open(os.path.join(tmp, name), "rb") as b:
                    self.assertEqual(a.read(), b.read(), name)


class Runs(unittest.TestCase):
    def test_smoke_ok_ratio(self):
        declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r, d = short(w)
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertGreaterEqual(r["attempted"], 1)
                got = {k: m["unit"] for k, m in r["metrics"].items()}
                self.assertEqual(got, declared)
                self.assertEqual(r["metrics"]["ok_ratio"]["value"], 1)
                for name, m in r["metrics"].items():
                    self.assertGreater(m["value"], 0, name)
                # ops_per_s and iqm_ms come from the fastest quarter of
                # the complete blocks (at least one).
                self.assertGreaterEqual(float(d["blocks"]), 1)
                self.assertLessEqual(float(d["quiet_blocks"]),
                                     max(1, float(d["blocks"]) / 4))

    def test_corrupt_reference_lowers_ok_ratio(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r, _ = short(w, "--corrupt-reference")
                self.assertFalse(r["correct"])
                self.assertGreater(r["failed"], 0)
                self.assertLess(r["metrics"]["ok_ratio"]["value"], 1)

    def test_sync_that_skips_durability_lowers_ok_ratio(self):
        # The storage decorator acknowledges every sync without forwarding
        # it; the crash-and-remount check must find the last round lost.
        r, d = short("fs-write", "--drop-sync")
        self.assertFalse(r["correct"])
        self.assertGreater(float(d["durability_mismatches"]), 0)
        self.assertLess(r["metrics"]["ok_ratio"]["value"], 1)

    def test_traced_run(self):
        declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for w in WORKLOADS:
            with self.subTest(workload=w):
                r, d = short(w, trace=1, seconds=2)
                self.assertTrue(r["correct"])
                got = {k: m["unit"] for k, m in r["metrics"].items()}
                self.assertEqual(got, declared)
                if w == "serve":
                    continue
                # Spans nest, so the per-layer self times sum to the root
                # spans' time, which the op time of the traced units
                # encloses; the sum differs from the op time of the
                # untraced units by no more than the tracing overhead
                # (plus 2% for unit-to-unit noise in a short run).
                self.assertEqual(float(d["trace_misnested"]), 0)
                self_sum = float(d["trace_self_sum_ms_per_unit"])
                root = float(d["trace_root_ms_per_unit"])
                traced = float(d["trace_traced_ms_per_unit"])
                untraced = float(d["trace_untraced_ms_per_unit"])
                self.assertAlmostEqual(self_sum / root, 1, delta=0.001)
                self.assertLessEqual(self_sum, traced * 1.001)
                self.assertLessEqual(abs(self_sum - untraced),
                                     abs(traced - untraced) +
                                     0.02 * untraced)

    def test_self_times_cover_fs_write_layers(self):
        r, d = short("fs-write", trace=1, seconds=3)
        m = {k: v["value"] for k, v in r["metrics"].items()}
        parts = (m["storage.self_ms"] + m["backends.slow_store_ms"] +
                 m["fs.other_self_ms"])
        self.assertAlmostEqual(parts / float(d["trace_self_sum_ms_per_unit"]),
                               1, delta=0.001)
        self.assertGreater(m["storage.self_ms"], 0)
        self.assertGreater(m["backends.slow_store_ms"], 0)


class Refusals(unittest.TestCase):
    def test_refuses_profile_override(self):
        for var, value in (("DOPPIO_JVM_PROFILE", "quick"),
                           ("DOPPIO_JVM_TRUST_VERIFIER", "0"),
                           ("DOPPIO_JVM_SUSPEND_PLACEMENT", "placed")):
            with self.subTest(var=var):
                env = dict(os.environ, **{var: value})
                done = bench("--workload", "jvm", "--seed", 1, "--seconds",
                             1, "--trace", 0, env=env)
                self.assertNotEqual(done.returncode, 0)
                self.assertEqual(done.stdout.strip(), "")

    def test_fails_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = bench("--workload", "jvm", "--seed", 1, "--seconds", 1,
                         "--trace", 0, cwd=tmp)
            self.assertNotEqual(done.returncode, 0)
            self.assertEqual(done.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
