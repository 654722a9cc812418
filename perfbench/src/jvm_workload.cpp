//===- perfbench/src/jvm_workload.cpp - Program launches -----------------===//
//
// Workload "jvm": each op is one program launch, from a fresh deployment
// (browser tab, Doppio fs with /classes and /srv served over XHR, a
// DoppioJVM with the core class library installed) to process exit and
// teardown, with default JvmOptions in DoppioJS mode. Launches cycle
// through a seeded order of the seven §7 programs. Every launch's stdout
// is compared with the committed reference for that program and input
// size (perfbench/expected/<program>-<size>.txt).
//
//===----------------------------------------------------------------------===//

#include "runs.h"

#include "tracer.h"

#include "doppio/backends/in_memory.h"
#include "doppio/backends/mountable.h"
#include "doppio/backends/xhr_fs.h"
#include "jvm/jvm.h"
#include "workloads/workloads.h"

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>

using namespace doppio;
using namespace doppio::rt;

namespace perfbench {
namespace {

struct Program {
  std::string Name;
  /// Input size, as named in the reference file.
  std::string Size;
  workloads::Workload W;
  std::string Expected;
};

/// Input sizes: each program takes at least about a tenth of a cycle's
/// host time, so a gain in any one interpreter layer moves ops_per_s.
std::vector<Program> makePrograms() {
  std::vector<Program> P;
  P.push_back({"classdump", "160", workloads::makeClassDump(160), ""});
  P.push_back({"minicompile", "3", workloads::makeMiniCompile(3), ""});
  P.push_back({"recursive", "21-6", workloads::makeRecursive(21, 6), ""});
  P.push_back({"binarytrees", "8", workloads::makeBinaryTrees(8), ""});
  P.push_back({"nqueens", "9", workloads::makeNQueens(9), ""});
  // A chain of 40 constraints has 20 doubling steps, so the checksum
  // keeps every iteration's value (past 32 steps each would be -1).
  P.push_back({"deltablue", "40-1501", workloads::makeDeltaBlue(40, 1501),
               ""});
  P.push_back({"pidigits", "140", workloads::makePiDigits(140), ""});
  return P;
}

/// One deployment, as bench::Deployment builds it; in traced launches the
/// root and both XHR mounts sit behind the benchmark's decorator.
struct Deployment {
  Deployment(const workloads::Workload &W, const jvm::JvmOptions &Options,
             bool Traced)
      : Env(browser::chromeProfile()) {
    workloads::publish(W, Env.server());
    auto Wrap = [Traced](std::unique_ptr<fs::FileSystemBackend> B)
        -> std::unique_ptr<fs::FileSystemBackend> {
      if (!Traced)
        return B;
      return std::make_unique<TimedBackend>(std::move(B), LayerJvmFs,
                                            LayerJvmOther);
    };
    auto Mounted = std::make_unique<fs::MountableFileSystem>(
        Wrap(std::make_unique<fs::InMemoryBackend>(Env)));
    Mounted->mount("/classes",
                   Wrap(std::make_unique<fs::XhrBackend>(Env, "/classes")));
    Mounted->mount("/srv", Wrap(std::make_unique<fs::XhrBackend>(Env, "/srv")));
    Fs = std::make_unique<fs::FileSystem>(Env, Proc, std::move(Mounted));
    Vm = std::make_unique<jvm::Jvm>(Env, *Fs, Proc, Options);
  }

  browser::BrowserEnv Env;
  Process Proc;
  std::unique_ptr<fs::FileSystem> Fs;
  std::unique_ptr<jvm::Jvm> Vm;
};

struct Launch {
  uint64_t TotalNs = 0, DeployNs = 0, RunNs = 0;
  bool Ok = false;
  uint64_t Bytecodes = 0, IcHits = 0, IcMisses = 0, SuspendChecks = 0;
  uint64_t Classes = 0, VirtualNs = 0, Events = 0, Resumptions = 0;
  uint64_t RetainedSamples = 0;
};

Launch launch(const Program &P, const jvm::JvmOptions &Options, bool Traced) {
  Launch L;
  // The launch's time encloses its root span, so the span bookkeeping
  // counts as tracing overhead.
  uint64_t T0 = nowNs();
  size_t Root = 0;
  if (Traced)
    Root = tracer().begin("jvm.launch", LayerJvmOther);
  {
    Deployment D(P.W, Options, Traced);
    uint64_t T1 = nowNs();
    int Exit = D.Vm->runMainToCompletion(P.W.MainClass, P.W.Args);
    uint64_t T2 = nowNs();
    L.DeployNs = T1 - T0;
    L.RunNs = T2 - T1;
    L.Ok = Exit == 0 && D.Proc.capturedStdout() == P.Expected;
    L.Bytecodes = D.Vm->stats().OpsExecuted;
    L.IcHits = D.Vm->icHits();
    L.IcMisses = D.Vm->icMisses();
    L.SuspendChecks = D.Vm->suspendChecksExecuted();
    L.Classes = D.Vm->loader().loadedCount();
    L.VirtualNs = D.Env.clock().nowNs();
    L.Events = D.Env.metrics().counter("loop.events_run").value();
    L.Resumptions = D.Vm->suspender().resumptionCount();
    D.Env.metrics().forEachHistogram(
        [&L](const std::string &, const obs::Histogram &H) {
          L.RetainedSamples += H.samples().size();
        });
  }
  if (Traced)
    tracer().end(Root);
  L.TotalNs = nowNs() - T0;
  return L;
}

bool loadExpected(const Options &Opts, Program &P) {
  std::string Path =
      Opts.ExpectedDir + "/" + P.Name + "-" + P.Size + ".txt";
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::stringstream Buf;
  Buf << In.rdbuf();
  P.Expected = Buf.str();
  if (Opts.CorruptReference && !P.Expected.empty())
    P.Expected[P.Expected.size() / 2] ^= 0x20;
  return true;
}

} // namespace

int dumpJvmOutputs(const Options &Opts) {
  // A reference is written only when three executions agree: the
  // measured configuration, the native-interpreter mode, and the baseline
  // profile with every interpreter optimization off.
  jvm::JvmOptions Default, Native, Baseline;
  Native.Mode = jvm::ExecutionMode::NativeHotspot;
  Baseline.Exec = jvm::ExecProfile::baseline();
  for (Program &P : makePrograms()) {
    std::string Outputs[3];
    int Exits[3];
    uint64_t Bytecodes = 0;
    double Ms = 0;
    const jvm::JvmOptions *Configs[3] = {&Default, &Native, &Baseline};
    for (int I = 0; I < 3; ++I) {
      uint64_t T0 = nowNs();
      Deployment D(P.W, *Configs[I], false);
      Exits[I] = D.Vm->runMainToCompletion(P.W.MainClass, P.W.Args);
      Outputs[I] = D.Proc.capturedStdout();
      if (I == 0) {
        Ms = static_cast<double>(nowNs() - T0) / 1e6;
        Bytecodes = D.Vm->stats().OpsExecuted;
      }
    }
    std::string Path =
        Opts.ExpectedDir + "/" + P.Name + "-" + P.Size + ".txt";
    if (Exits[0] || Exits[1] || Exits[2] || Outputs[0] != Outputs[1] ||
        Outputs[0] != Outputs[2]) {
      fprintf(stderr, "perfbench: %s: executions disagree or fail\n",
              P.Name.c_str());
      return 1;
    }
    std::ofstream Out(Path, std::ios::binary);
    Out << Outputs[0];
    if (!Out) {
      fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
      return 1;
    }
    fprintf(stderr, "%-12s %9.1f ms  %12llu bytecodes -> %s\n",
            P.Name.c_str(), Ms, static_cast<unsigned long long>(Bytecodes),
            Path.c_str());
  }
  return 0;
}

int runJvm(const Options &Opts, Result &R) {
  jvm::JvmOptions JOpts;
  if (!Opts.ExecProfile.empty()) {
    std::string Err;
    if (!jvm::ExecProfile::parse(Opts.ExecProfile, JOpts.Exec, &Err)) {
      fprintf(stderr, "perfbench: bad exec profile: %s\n", Err.c_str());
      return 2;
    }
  }

  // Set-up: synthesize the programs, load the references, and warm every
  // program with one verified launch.
  std::vector<Program> Programs;
  bool Loaded = true;
  bool WarmOk = true;
  timedSetups(R, [] {}, [&] {
    Programs = makePrograms();
    for (Program &P : Programs)
      Loaded = loadExpected(Opts, P) && Loaded;
    for (const Program &P : Programs)
      WarmOk = launch(P, JOpts, false).Ok && WarmOk;
  });
  if (!Loaded) {
    fprintf(stderr, "perfbench: missing reference outputs under %s\n",
            Opts.ExpectedDir.c_str());
    return 2;
  }
  R.Correct = WarmOk;

  const size_t N = Programs.size();
  Rng Order(Opts.Seed);
  // peak_rss_mb is read after five cycles (OpLog).
  OpLog Log(5 * N);
  std::vector<std::vector<Launch>> ByProgram(N);
  // Traced runs alternate untraced and traced cycles; the gap between
  // their cycle times is the tracing overhead.
  double CycleNs[2] = {0, 0}, Cycles[2] = {0, 0};
  uint64_t Budget = static_cast<uint64_t>(Opts.Seconds * 1e9);
  tracer().resetTotals();
  for (uint64_t Cycle = 0; Log.BusyNs < Budget || (Opts.Trace && Cycle < 2);
       ++Cycle) {
    bool Traced = Opts.Trace && Cycle % 2 == 1;
    tracer().On = Traced;
    std::vector<size_t> Perm(N);
    for (size_t I = 0; I < N; ++I)
      Perm[I] = I;
    for (size_t I = N - 1; I > 0; --I)
      std::swap(Perm[I], Perm[Order.below(I + 1)]);
    for (size_t Idx : Perm) {
      Launch L = launch(Programs[Idx], JOpts, Traced);
      Log.op(L.TotalNs, L.Ok);
      Log.busy(L.TotalNs);
      CycleNs[Traced] += static_cast<double>(L.TotalNs);
      if (Traced)
        ByProgram[Idx].push_back(L);
    }
    // Each cycle is one block: every cycle runs the same programs from
    // fresh deployments, so cycles differ only in what the host costs.
    Log.endBlock();
    ++Cycles[Traced];
  }
  tracer().On = false;
  R.Correct = R.Correct && Log.Failed == 0;

  if (!Opts.Trace) {
    // One launch in seven is the slowest program, so the tail is p90: the
    // quiet quarter of a run's ~60 cycles leaves ~10 launches beyond it.
    reportOps(R, Log, 90, true);
    return 0;
  }

  R.Attempted += Log.Attempted;
  R.Failed += Log.Failed;
  uint64_t Classes = 0, Checks = 0, IcHits = 0, IcMisses = 0;
  uint64_t VirtualNs = 0, Events = 0, Resumptions = 0, Launches = 0;
  uint64_t Retained = 0;
  std::vector<double> Deploy;
  for (size_t I = 0; I < N; ++I) {
    const std::vector<Launch> &Ls = ByProgram[I];
    std::vector<double> RunMs, NsPerOp;
    for (const Launch &L : Ls) {
      RunMs.push_back(static_cast<double>(L.RunNs) / 1e6);
      NsPerOp.push_back(static_cast<double>(L.RunNs) /
                        static_cast<double>(std::max<uint64_t>(L.Bytecodes, 1)));
      Deploy.push_back(static_cast<double>(L.DeployNs) / 1e6);
      Events += L.Events;
      Resumptions += L.Resumptions;
      Retained = std::max(Retained, L.RetainedSamples);
      ++Launches;
    }
    const std::string &Name = Programs[I].Name;
    R.metric("jvm.run_ms." + Name, median(RunMs), "ms");
    R.metric("jvm.ns_per_bytecode." + Name, median(NsPerOp), "ns");
    const Launch &First = Ls.front();
    R.metric("jvm.bytecodes." + Name, static_cast<double>(First.Bytecodes),
             "count");
    Classes += First.Classes;
    Checks += First.SuspendChecks;
    IcHits += First.IcHits;
    IcMisses += First.IcMisses;
    VirtualNs += First.VirtualNs;
  }
  R.metric("jvm.deploy_ms", median(Deploy), "ms");
  R.metric("jvm.ic_hit_ratio",
           IcHits + IcMisses ? static_cast<double>(IcHits) /
                                   static_cast<double>(IcHits + IcMisses)
                             : 0,
           "ratio");
  R.metric("jvm.suspend_checks", static_cast<double>(Checks), "count");
  R.metric("jvm.classes_loaded", static_cast<double>(Classes), "count");
  double TracedCycles = Cycles[1];
  R.metric("jvm.fs_backend_ms",
           static_cast<double>(tracer().selfNs(LayerJvmFs)) / 1e6 /
               TracedCycles,
           "ms");
  R.metric("kernel.events_per_op",
           static_cast<double>(Events) / static_cast<double>(Launches),
           "count");
  R.metric("suspend.resumptions_per_op",
           static_cast<double>(Resumptions) / static_cast<double>(Launches),
           "count");
  R.metric("obs.retained_samples", static_cast<double>(Retained), "count");
  R.metric("browser.virtual_ms", static_cast<double>(VirtualNs) / 1e6,
           "count");
  reportTraceOverhead(R, CycleNs, Cycles, "ms per cycle");
  return 0;
}

} // namespace perfbench
