#!/usr/bin/env python3
"""Builds and runs the host-time benchmark of the Doppio reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <jvm|fs-read|fs-write|serve> \\
        --seed <n> --seconds <s> --trace <0|1> [extra perfbench flags]

The benchmark is its own CMake package (perfbench/CMakeLists.txt) that
compiles the repository's sources from src/ into .bench_build/ in Release
mode, then runs .bench_build/perfbench. Build output goes to stderr; the
last line on stdout is the result object
{"correct", "attempted", "failed", "metrics"}.

Extra flags (--slow-put-delay-us, --exec-profile, --corrupt-reference,
--drop-sync, --expected-dir, --dump-outputs) pass through to the
binary; see perfbench/README.md.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
REFUSED_ENV = ("DOPPIO_JVM_PROFILE", "DOPPIO_JVM_TRUST_VERIFIER",
               "DOPPIO_JVM_SUSPEND_PLACEMENT")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no repository sources under src/; run from a full checkout")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    configure = ["cmake", "-S", HERE, "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")) and \
            shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main(argv):
    for var in REFUSED_ENV:
        if var in os.environ:
            fail("refusing to run with %s set: the jvm workload must "
                 "measure the default execution profile" % var, 3)
    build()
    binary = os.path.join(BUILD, "perfbench")
    expected = os.path.join(HERE, "expected")
    args = [binary, "--expected-dir", expected] + argv
    done = subprocess.run(args, cwd=ROOT)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
