//===- bench/bench_util.h - Shared evaluation harness -------------*- C++ -*-==//
//
// Deployment and measurement helpers shared by the per-figure benchmark
// binaries. Every harness reports virtual browser time from the
// deterministic clock, so a second run reproduces its figures exactly.
// Host time is perfbench's alone (perfbench/README.md), which measures it
// with fixed-work blocks and a stated spread.
//
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_BENCH_BENCH_UTIL_H
#define DOPPIO_BENCH_BENCH_UTIL_H

#include "doppio/backends/in_memory.h"
#include "doppio/backends/mountable.h"
#include "doppio/backends/xhr_fs.h"
#include "jvm/jvm.h"
#include "workloads/workloads.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

namespace doppio {
namespace bench {

/// A complete browser + Doppio-fs + DoppioJVM deployment for one run.
struct Deployment {
  Deployment(const workloads::Workload &W, jvm::ExecutionMode Mode,
             const browser::Profile &P,
             jvm::JvmOptions Options = jvm::JvmOptions())
      : Env(P) {
    workloads::publish(W, Env.server());
    auto Root = std::make_unique<rt::fs::InMemoryBackend>(Env);
    auto Mounted =
        std::make_unique<rt::fs::MountableFileSystem>(std::move(Root));
    Mounted->mount("/classes",
                   std::make_unique<rt::fs::XhrBackend>(Env, "/classes"));
    Mounted->mount("/srv",
                   std::make_unique<rt::fs::XhrBackend>(Env, "/srv"));
    Fs = std::make_unique<rt::fs::FileSystem>(Env, Proc,
                                              std::move(Mounted));
    Options.Mode = Mode;
    Vm = std::make_unique<jvm::Jvm>(Env, *Fs, Proc, Options);
  }

  browser::BrowserEnv Env;
  rt::Process Proc;
  std::unique_ptr<rt::fs::FileSystem> Fs;
  std::unique_ptr<jvm::Jvm> Vm;
};

/// Everything the figure harnesses report about one run.
struct RunMetrics {
  int Exit = -1;
  uint64_t VirtualWallNs = 0;
  uint64_t SuspendedNs = 0;
  uint64_t Resumptions = 0;
  uint64_t Ops = 0;
  uint64_t SuspendYields = 0;
  std::string Output;
  uint64_t FsOperations = 0;
  uint64_t FsBytes = 0;
  // Suspend-check placement accounting (DESIGN.md §17).
  uint64_t SuspendChecksExecuted = 0;
  uint64_t SuspendChecksElided = 0;
  uint64_t MaxOpsBetweenChecks = 0;
  uint64_t ProvenBoundMax = 0;
  // Quickening and inline-cache accounting (DESIGN.md §18).
  uint64_t QuickenedSites = 0;
  uint64_t IcHits = 0;
  uint64_t IcMisses = 0;

  uint64_t cpuNs() const { return VirtualWallNs - SuspendedNs; }
};

inline RunMetrics runJvmWorkload(const workloads::Workload &W,
                                 jvm::ExecutionMode Mode,
                                 const browser::Profile &P,
                                 jvm::JvmOptions Options = jvm::JvmOptions()) {
  Deployment D(W, Mode, P, Options);
  RunMetrics M;
  M.Exit = D.Vm->runMainToCompletion(W.MainClass, W.Args);
  M.VirtualWallNs = D.Env.clock().nowNs();
  M.SuspendedNs = D.Vm->suspender().totalSuspendedNs();
  M.Resumptions = D.Vm->suspender().resumptionCount();
  M.Ops = D.Vm->stats().OpsExecuted;
  M.SuspendYields = D.Vm->stats().SuspendYields;
  M.Output = D.Proc.capturedStdout();
  const rt::fs::FileSystem::Cells &Fs = D.Fs->cells();
  M.FsOperations = Fs.Ops->value();
  M.FsBytes = Fs.BytesRead->value() + Fs.BytesWritten->value();
  M.SuspendChecksExecuted = D.Vm->suspendChecksExecuted();
  M.SuspendChecksElided = D.Vm->suspendChecksElided();
  M.MaxOpsBetweenChecks = D.Vm->stats().MaxOpsBetweenChecks;
  M.ProvenBoundMax = D.Vm->loader().provenBoundMax();
  M.QuickenedSites = D.Vm->stats().QuickenedSites;
  M.IcHits = D.Vm->icHits();
  M.IcMisses = D.Vm->icMisses();
  return M;
}

/// Nominal HotSpot-interpreter time for the same work (DESIGN.md's
/// calibrated baseline): bytecodes executed by the native-mode run times
/// the per-op cost.
inline uint64_t nativeNominalNs(const RunMetrics &NativeRun,
                                const jvm::JvmOptions &Options = {}) {
  // Interpreter work plus native file system work: the paper's baseline is
  // HotSpot on a real OS (javap/javac do real I/O there too). Native fs
  // cost model matches fstrace.cpp: ~25 us per call + page-cache copies.
  return NativeRun.Ops * Options.NativeOpCostNs +
         NativeRun.FsOperations * 25000 + NativeRun.FsBytes * 4 / 10;
}

inline double geomean(const std::vector<double> &Xs) {
  double LogSum = 0;
  for (double X : Xs)
    LogSum += std::log(X);
  return Xs.empty() ? 0 : std::exp(LogSum / static_cast<double>(Xs.size()));
}

/// Prints a figure-style table row of slowdown factors.
inline void printRow(const char *Label, const std::vector<double> &Cells) {
  printf("%-14s", Label);
  for (double C : Cells)
    printf(" %9.1fx", C);
  printf("\n");
}

inline void printBrowserHeader(const char *FirstColumn) {
  printf("%-14s", FirstColumn);
  for (const browser::Profile &P : browser::allProfiles())
    printf(" %10s", P.Name.c_str());
  printf("\n");
}

/// Machine-readable result emission: every harness writes a
/// `BENCH_<name>.json` next to its table so the repo accumulates a perf
/// trajectory that scripts can diff across commits. The file holds the
/// deterministic virtual-clock series (one row per browser/configuration),
/// the harness's acceptance-gate values, and one host key, `table_seconds`
/// (how long the table took to generate), which is the only value that
/// differs between two runs.
///
///   BenchJson J("fig7_server");
///   J.row("chrome").metric("req_per_s", 144200).metric("p99_us", 727.1);
///   J.gate("gate_ok", 1);                    // optional
///   J.write();                               // -> BENCH_fig7_server.json
class BenchJson {
public:
  explicit BenchJson(std::string Name)
      : Name(std::move(Name)), Started(std::chrono::steady_clock::now()) {}

  class Row {
  public:
    explicit Row(std::string Label) : Label(std::move(Label)) {}
    Row &metric(const std::string &Key, double Value) {
      Metrics.emplace_back(Key, Value);
      return *this;
    }

  private:
    friend class BenchJson;
    std::string Label;
    std::vector<std::pair<std::string, double>> Metrics;
  };

  /// Appends (or retrieves) the virtual-clock series row for \p Label —
  /// typically a browser profile name.
  Row &row(const std::string &Label) {
    for (Row &R : Rows)
      if (R.Label == Label)
        return R;
    Rows.emplace_back(Label);
    return Rows.back();
  }

  /// Adds a whole-run acceptance-gate value (virtual, like the series).
  void gate(const std::string &Key, double Value) {
    Gates.emplace_back(Key, Value);
  }

  /// Writes BENCH_<name>.json into the working directory. Returns false
  /// (and warns) on I/O failure; benches keep running either way.
  bool write() {
    double HostSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - Started)
                             .count();
    std::string Path = "BENCH_" + Name + ".json";
    FILE *F = fopen(Path.c_str(), "w");
    if (!F) {
      fprintf(stderr, "bench: cannot write %s\n", Path.c_str());
      return false;
    }
    fprintf(F, "{\n  \"bench\": \"%s\",\n", Name.c_str());
    fprintf(F, "  \"schema\": \"doppio-bench-v2\",\n");
    fprintf(F, "  \"clock\": \"virtual\",\n");
    fprintf(F, "  \"series\": [\n");
    for (size_t I = 0; I < Rows.size(); ++I) {
      const Row &R = Rows[I];
      fprintf(F, "    {\"label\": \"%s\"", R.Label.c_str());
      for (const auto &[K, V] : R.Metrics)
        fprintf(F, ", \"%s\": %s", K.c_str(), num(V).c_str());
      fprintf(F, "}%s\n", I + 1 < Rows.size() ? "," : "");
    }
    fprintf(F, "  ],\n");
    fprintf(F, "  \"gates\": {");
    for (size_t I = 0; I < Gates.size(); ++I)
      fprintf(F, "%s\"%s\": %s", I ? ", " : "", Gates[I].first.c_str(),
              num(Gates[I].second).c_str());
    fprintf(F, "},\n");
    fprintf(F, "  \"host\": {\"table_seconds\": %s}\n}\n",
            num(HostSeconds).c_str());
    fclose(F);
    printf("[wrote %s]\n", Path.c_str());
    return true;
  }

private:
  /// JSON has no NaN/Inf; clamp them to null.
  static std::string num(double V) {
    if (!std::isfinite(V))
      return "null";
    char Buf[32];
    snprintf(Buf, sizeof(Buf), "%.6g", V);
    return Buf;
  }

  std::string Name;
  std::chrono::steady_clock::time_point Started;
  std::vector<Row> Rows;
  std::vector<std::pair<std::string, double>> Gates;
};

} // namespace bench
} // namespace doppio

#endif // DOPPIO_BENCH_BENCH_UTIL_H
