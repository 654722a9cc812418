//===- perfbench/src/main.cpp - Benchmark entry point --------------------===//
//
//   perfbench --workload <jvm|fs-read|fs-write|serve> --seed <n>
//             --seconds <s> --trace <0|1>
//             [--expected-dir <dir>] [--slow-put-delay-us <us>]
//             [--exec-profile <spec>] [--corrupt-reference] [--drop-sync]
//   perfbench --dump-outputs [--expected-dir <dir>]
//
// Prints one details line ({"details": {...}}) and, last, the result
// object {"correct", "attempted", "failed", "metrics"}. An untraced run
// reports the end-to-end metrics; a traced run reports every per-layer
// metric, with 0 for a layer the workload does not exercise.
//
// Exit codes: 0 measured (correct or not), 2 usage error, 3 refused
// environment.
//
//===----------------------------------------------------------------------===//

#include "runs.h"
#include "tracer.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

using namespace perfbench;

namespace {

/// Every per-layer metric, in BENCHMARK.json order.
const std::pair<const char *, const char *> PerLayer[] = {
    {"jvm.run_ms.classdump", "ms"},
    {"jvm.run_ms.minicompile", "ms"},
    {"jvm.run_ms.recursive", "ms"},
    {"jvm.run_ms.binarytrees", "ms"},
    {"jvm.run_ms.nqueens", "ms"},
    {"jvm.run_ms.deltablue", "ms"},
    {"jvm.run_ms.pidigits", "ms"},
    {"jvm.ns_per_bytecode.classdump", "ns"},
    {"jvm.ns_per_bytecode.minicompile", "ns"},
    {"jvm.ns_per_bytecode.recursive", "ns"},
    {"jvm.ns_per_bytecode.binarytrees", "ns"},
    {"jvm.ns_per_bytecode.nqueens", "ns"},
    {"jvm.ns_per_bytecode.deltablue", "ns"},
    {"jvm.ns_per_bytecode.pidigits", "ns"},
    {"jvm.bytecodes.classdump", "count"},
    {"jvm.bytecodes.minicompile", "count"},
    {"jvm.bytecodes.recursive", "count"},
    {"jvm.bytecodes.binarytrees", "count"},
    {"jvm.bytecodes.nqueens", "count"},
    {"jvm.bytecodes.deltablue", "count"},
    {"jvm.bytecodes.pidigits", "count"},
    {"jvm.deploy_ms", "ms"},
    {"jvm.ic_hit_ratio", "ratio"},
    {"jvm.suspend_checks", "count"},
    {"jvm.classes_loaded", "count"},
    {"jvm.fs_backend_ms", "ms"},
    {"fs.read_us", "us"},
    {"fs.stat_us", "us"},
    {"fs.readdir_us", "us"},
    {"fs.write_us", "us"},
    {"storage.self_ms", "ms"},
    {"backends.slow_store_ms", "ms"},
    {"fs.other_self_ms", "ms"},
    {"storage.put_bytes_per_byte", "ratio"},
    {"backends.slow_put_bytes_per_byte", "ratio"},
    {"backends.index_puts_per_write", "ratio"},
    {"fs.sync_ms", "ms"},
    {"storage.flushes", "count"},
    {"storage.journal_commits", "count"},
    {"storage.checkpoints", "count"},
    {"storage.gc_blocks", "count"},
    {"storage.dedup_hits", "count"},
    {"storage.hit_ratio", "ratio"},
    {"storage.get_bytes_per_read_byte", "ratio"},
    {"storage.evictions", "count"},
    {"server.file_us", "us"},
    {"server.stat_us", "us"},
    {"server.spawn_us", "us"},
    {"server.refused", "count"},
    {"proc.spawned", "count"},
    {"kernel.events_per_op", "count"},
    {"suspend.resumptions_per_op", "count"},
    {"obs.retained_samples", "count"},
    {"browser.virtual_ms", "count"},
    {"trace.overhead_pct", "%"},
};

const std::pair<const char *, const char *> EndToEnd[] = {
    {"ops_per_s", "1/s"}, {"iqm_ms", "ms"},       {"tail_ms", "ms"},
    {"ok_ratio", "ratio"}, {"peak_rss_mb", "MB"}, {"setup_s", "s"},
};

int usage(const char *Why) {
  fprintf(stderr, "perfbench: %s\n", Why);
  return 2;
}

std::string num(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

std::string quoted(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    Out += C;
  }
  return Out + "\"";
}

} // namespace

int main(int argc, char **argv) {
  Options Opts;
  bool HaveWorkload = false, HaveTrace = false, DumpOutputs = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Value = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (A == "--corrupt-reference") {
      Opts.CorruptReference = true;
      continue;
    }
    if (A == "--drop-sync") {
      Opts.DropSync = true;
      continue;
    }
    if (A == "--dump-outputs") {
      DumpOutputs = true;
      continue;
    }
    if (!(V = Value()))
      return usage(("missing value for " + A).c_str());
    char *End = nullptr;
    if (A == "--workload") {
      Opts.Workload = V;
      HaveWorkload = true;
    } else if (A == "--seed") {
      Opts.Seed = strtoull(V, &End, 10);
    } else if (A == "--seconds") {
      Opts.Seconds = strtod(V, &End);
    } else if (A == "--trace") {
      Opts.Trace = std::strcmp(V, "1") == 0;
      HaveTrace = std::strcmp(V, "0") == 0 || Opts.Trace;
    } else if (A == "--expected-dir") {
      Opts.ExpectedDir = V;
    } else if (A == "--slow-put-delay-us") {
      Opts.SlowPutDelayUs = strtoull(V, &End, 10);
    } else if (A == "--exec-profile") {
      Opts.ExecProfile = V;
    } else {
      return usage(("unknown argument " + A).c_str());
    }
    if (End && *End)
      return usage(("bad value for " + A).c_str());
  }
  if (DumpOutputs)
    return dumpJvmOutputs(Opts);
  if (!HaveWorkload || !HaveTrace)
    return usage("need --workload and --trace 0|1");
  if (!(Opts.Seconds > 0))
    return usage("--seconds must be positive");

  // The jvm workload measures what a user gets: an environment override
  // of the execution profile would measure something else.
  for (const char *Var : {"DOPPIO_JVM_PROFILE", "DOPPIO_JVM_TRUST_VERIFIER",
                          "DOPPIO_JVM_SUSPEND_PLACEMENT"})
    if (getenv(Var)) {
      fprintf(stderr, "perfbench: refusing to run with %s set\n", Var);
      return 3;
    }
#ifndef __OPTIMIZE__
  fprintf(stderr, "perfbench: refusing an unoptimized build\n");
  return 3;
#endif

  rotateCpus(!Opts.Trace);
  Result R;
  int Rc;
  if (Opts.Workload == "jvm")
    Rc = runJvm(Opts, R);
  else if (Opts.Workload == "fs-read")
    Rc = runFsRead(Opts, R);
  else if (Opts.Workload == "fs-write")
    Rc = runFsWrite(Opts, R);
  else if (Opts.Workload == "serve")
    Rc = runServe(Opts, R);
  else
    return usage(("unknown workload " + Opts.Workload).c_str());
  if (Rc)
    return Rc;

  if (Opts.Trace &&
      !tracer().writeOut(".bench_build/spans-" + Opts.Workload + ".jsonl"))
    fprintf(stderr, "perfbench: could not write the span file\n");

  // Emit exactly the declared metric set, in declared order.
  std::map<std::string, Metric> Got;
  for (const Metric &M : R.Metrics)
    Got[M.Name] = M;
  std::string Metrics;
  auto Emit = [&](const char *Name, const char *Unit) {
    auto It = Got.find(Name);
    double V = It == Got.end() ? 0 : It->second.Value;
    if (It != Got.end()) {
      if (It->second.Unit != Unit) {
        fprintf(stderr, "perfbench: %s reported in %s, declared %s\n", Name,
                It->second.Unit.c_str(), Unit);
        R.Correct = false;
      }
      Got.erase(It);
    }
    if (!Metrics.empty())
      Metrics += ", ";
    Metrics += quoted(Name) + ": {\"value\": " + num(V) +
               ", \"unit\": " + quoted(Unit) + "}";
  };
  if (Opts.Trace) {
    // Set-up time is an end-to-end metric; traced runs do not report it.
    Got.erase("setup_s");
    for (const auto &[Name, Unit] : PerLayer)
      Emit(Name, Unit);
  } else {
    for (const auto &[Name, Unit] : EndToEnd)
      Emit(Name, Unit);
  }
  for (const auto &[Name, M] : Got) {
    fprintf(stderr, "perfbench: undeclared metric %s\n", Name.c_str());
    R.Correct = false;
  }

  if (R.Attempted == 0) {
    R.Attempted = R.Failed = 1;
    R.Correct = false;
  }
  std::string Details = "\"build_type\": " + quoted(PERFBENCH_BUILD_TYPE) +
                        ", \"compiler\": " + quoted(PERFBENCH_COMPILER);
  for (const auto &[K, V] : R.Details)
    Details += ", " + quoted(K) + ": " + quoted(V);
  printf("{\"details\": {%s}}\n", Details.c_str());
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": {%s}}\n",
         R.Correct ? "true" : "false",
         static_cast<unsigned long long>(R.Attempted),
         static_cast<unsigned long long>(R.Failed), Metrics.c_str());
  return 0;
}
