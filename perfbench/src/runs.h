//===- perfbench/src/runs.h - The four workloads ------------------*- C++ -*-==//
//
// Each runner sets up its workload (timing setup_s), measures for
// Options::Seconds of host time, checks every output against a reference
// outside the code under test, and fills the result. Untraced runs report
// the end-to-end metrics; traced runs (Options::Trace) alternate untraced
// and traced units of work and report the per-layer metrics plus the
// tracing overhead. A nonzero return is a usage or environment error.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_RUNS_H
#define PERFBENCH_RUNS_H

#include "common.h"

namespace perfbench {

int runJvm(const Options &Opts, Result &R);
int runFsRead(const Options &Opts, Result &R);
int runFsWrite(const Options &Opts, Result &R);
int runServe(const Options &Opts, Result &R);

/// Writes each jvm program's stdout as its reference output under
/// Options::ExpectedDir (used when an input size changes; the references
/// are then cross-checked by perfbench/test_perfbench.py).
int dumpJvmOutputs(const Options &Opts);

} // namespace perfbench

#endif // PERFBENCH_RUNS_H
