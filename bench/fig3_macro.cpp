//===- bench/fig3_macro.cpp - Figure 3: macro benchmark slowdowns --------===//
//
// Regenerates Figure 3: DoppioJVM's slowdown on the macro benchmarks
// (javap/classdump, javac/minicompile, Rhino recursive + binary-trees,
// Kawa nqueens) relative to the HotSpot interpreter, per browser.
//
// Paper shape to match: Chrome is the fastest browser at 24-42x slower
// than HotSpot (geometric mean 32x); the other browsers are worse in
// proportion to their 2013 engines; and javap on Safari blows up because
// Safari never collects typed arrays, so the file-heavy workload drives
// the machine into paging (§7.1).
//
// Every factor is virtual (the calibrated model, DESIGN.md); host time is
// perfbench's. Exit 1 if any run fails or DoppioJS output differs from
// the native run's.
//
//===----------------------------------------------------------------------===//

#include "bench_util.h"

using namespace doppio;
using namespace doppio::bench;
using namespace doppio::jvm;
using namespace doppio::workloads;

namespace {

std::vector<Workload> macroWorkloads() {
  std::vector<Workload> Out;
  Out.push_back(makeClassDump(491)); // javap on javac's 491 class files.
  Out.push_back(makeMiniCompile(19)); // javac on javap's 19 sources.
  Out.push_back(makeRecursive(20, 6));
  Out.push_back(makeBinaryTrees(9));
  Out.push_back(makeNQueens(8));
  return Out;
}

const char *paperLabel(const std::string &Name) {
  if (Name == "classdump")
    return "javap*";
  if (Name == "minicompile")
    return "javac*";
  return nullptr;
}

/// Returns true iff every run exited 0 with DoppioJS output identical to
/// the native run's.
bool printFigure3() {
  printf("==========================================================\n");
  printf("Figure 3: slowdown vs the HotSpot interpreter (virtual)\n");
  printf("(paper: Chrome between 24x and 42x, geomean 32x; Safari\n");
  printf(" degrades on javap due to the typed-array leak)\n");
  printf("==========================================================\n");
  printBrowserHeader("benchmark");
  std::vector<double> ChromeFactors;
  bool Ok = true;
  BenchJson Json("fig3_macro");
  for (Workload &W : macroWorkloads()) {
    RunMetrics Native =
        runJvmWorkload(W, ExecutionMode::NativeHotspot,
                       browser::chromeProfile());
    if (Native.Exit != 0) {
      printf("%-14s FAILED (exit %d)\n", W.Name.c_str(), Native.Exit);
      Ok = false;
      continue;
    }
    uint64_t BaselineNs = nativeNominalNs(Native);
    std::vector<double> Cells;
    BenchJson::Row &R = Json.row(W.Name);
    for (const browser::Profile &P : browser::allProfiles()) {
      RunMetrics Js = runJvmWorkload(W, ExecutionMode::DoppioJS, P);
      if (Js.Exit != 0 || Js.Output != Native.Output) {
        Ok = false;
        Cells.push_back(-1);
        R.metric(P.Name, -1);
        continue;
      }
      double Factor = static_cast<double>(Js.VirtualWallNs) /
                      static_cast<double>(BaselineNs);
      Cells.push_back(Factor);
      R.metric(P.Name, Factor);
    }
    const char *Alias = paperLabel(W.Name);
    printRow(Alias ? Alias : W.Name.c_str(), Cells);
    ChromeFactors.push_back(Cells.front());
  }
  printf("%-14s %9.1fx   (paper: 32x)\n", "geomean(chrome)",
         geomean(ChromeFactors));
  Json.row("geomean").metric("chrome", geomean(ChromeFactors));
  Json.write();
  printf("* classdump/minicompile are the synthesized javap/javac analogs"
         " (DESIGN.md)\n\n");
  if (!Ok)
    fprintf(stderr, "fig3: a run failed or its output differed from the "
                    "native run's\n");
  return Ok;
}

} // namespace

int main() { return printFigure3() ? 0 : 1; }
