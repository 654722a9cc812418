//===- bench/fig5_suspend.cpp - Figure 5: suspension overhead ------------===//
//
// Regenerates Figure 5: time spent suspended (between scheduling a
// resumption callback and it running) as a percentage of total runtime,
// per browser, on the two microbenchmarks. Paper shape: under 2% in
// Chrome/Safari for DeltaBlue and under 1% for pidigits; browsers whose
// only mechanism is the 4 ms-clamped setTimeout (IE8) fare far worse.
//
// Plus the §4.4/§4.1 ablations DESIGN.md calls out:
//  - forcing each resumption mechanism on one browser, and
//  - replacing the adaptive suspend counter with fixed counters.
//
//===----------------------------------------------------------------------===//

#include "bench_util.h"

using namespace doppio;
using namespace doppio::bench;
using namespace doppio::jvm;
using namespace doppio::workloads;

namespace {

double suspendedPercent(const RunMetrics &M) {
  return 100.0 * static_cast<double>(M.SuspendedNs) /
         static_cast<double>(M.VirtualWallNs);
}

void printFigure5() {
  printf("==========================================================\n");
  printf("Figure 5: suspension time as %% of total runtime\n");
  printf("(paper: <2%% on Chrome/Safari for DeltaBlue, <1%% pidigits)\n");
  printf("==========================================================\n");
  printBrowserHeader("benchmark");
  struct Micro {
    const char *Label;
    Workload W;
  };
  std::vector<Micro> Micros;
  Micros.push_back({"deltablue", makeDeltaBlue(60, 400)});
  Micros.push_back({"pidigits", makePiDigits(200)});
  BenchJson Json("fig5_suspend");
  for (Micro &M : Micros) {
    printf("%-14s", M.Label);
    for (const browser::Profile &P : browser::allProfiles()) {
      RunMetrics Js = runJvmWorkload(M.W, ExecutionMode::DoppioJS, P);
      printf(" %9.2f%%", suspendedPercent(Js));
      Json.row(std::string(M.Label) + "/" + P.Name)
          .metric("suspended_pct", suspendedPercent(Js))
          .metric("resumptions", static_cast<double>(Js.Resumptions));
    }
    printf("\n");
  }
  Json.write();
  printf("\n");
}

/// §4.4 ablation: the same workload on one browser under each forced
/// resumption mechanism.
void printMechanismAblation() {
  printf("Ablation (§4.4): resumption mechanism, deltablue on ie10\n");
  printf("(ie10 exposes all three mechanisms)\n");
  Workload W = makeDeltaBlue(60, 400);
  for (rt::ResumeMechanism Mech :
       {rt::ResumeMechanism::SetImmediate, rt::ResumeMechanism::SendMessage,
        rt::ResumeMechanism::SetTimeout}) {
    Deployment D(W, ExecutionMode::DoppioJS, browser::ie10Profile());
    D.Vm->suspender().forceMechanism(Mech);
    D.Vm->runMainToCompletion(W.MainClass, W.Args);
    uint64_t Wall = D.Env.clock().nowNs();
    uint64_t Susp = D.Vm->suspender().totalSuspendedNs();
    printf("  %-12s suspended %6.2f%%  (%llu resumptions)\n",
           rt::resumeMechanismName(Mech),
           100.0 * static_cast<double>(Susp) / static_cast<double>(Wall),
           static_cast<unsigned long long>(
               D.Vm->suspender().resumptionCount()));
  }
  printf("\n");
}

/// §4.1 ablation: adaptive counter vs fixed counters.
void printCounterAblation() {
  printf("Ablation (§4.1): adaptive suspend counter vs fixed counters,\n");
  printf("deltablue on chrome (time slice 10 ms)\n");
  Workload W = makeDeltaBlue(60, 400);
  struct Config {
    const char *Label;
    uint64_t Fixed;
  };
  for (Config C : {Config{"adaptive", 0}, Config{"fixed 1k", 1000},
                   Config{"fixed 100k", 100000},
                   Config{"fixed 10M", 10000000}}) {
    Deployment D(W, ExecutionMode::DoppioJS, browser::chromeProfile());
    if (C.Fixed)
      D.Vm->suspender().forceFixedCounter(C.Fixed);
    D.Vm->runMainToCompletion(W.MainClass, W.Args);
    uint64_t Wall = D.Env.clock().nowNs();
    uint64_t Susp = D.Vm->suspender().totalSuspendedNs();
    printf("  %-12s suspended %6.2f%%, max event %6.2f ms "
           "(watchdog limit 5000 ms)\n",
           C.Label,
           100.0 * static_cast<double>(Susp) / static_cast<double>(Wall),
           static_cast<double>(D.Env.loop().cells().MaxEventNs->value()) /
               1e6);
  }
  printf("  (too-small counters waste time suspended; too-large ones\n"
         "   stretch events toward the watchdog limit — the adaptive\n"
         "   counter holds the configured slice)\n\n");
}

} // namespace

int main() {
  printFigure5();
  printMechanismAblation();
  printCounterAblation();
  return 0;
}
