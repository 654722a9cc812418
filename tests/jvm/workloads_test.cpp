//===- tests/jvm/workloads_test.cpp ---------------------------------------==//
//
// The §7.1 completeness claim in miniature: every benchmark workload runs
// unmodified to completion, and the DoppioJS system produces byte-for-byte
// the same output as the HotSpot-interpreter baseline (differential
// testing), on every browser profile.
//
//===----------------------------------------------------------------------===//

#include "workloads/workloads.h"

#include "jvm_test_util.h"

#include "gtest/gtest.h"

using namespace doppio;
using namespace doppio::jvm;
using namespace doppio::testutil;
using namespace doppio::workloads;

namespace {

/// Runs \p W in the given mode/browser; returns (exit code, stdout).
std::pair<int, std::string> runWorkload(const Workload &W,
                                        ExecutionMode Mode,
                                        const browser::Profile &P) {
  JvmRig Rig(Mode, P);
  publish(W, Rig.Env.server());
  int Code = Rig.run(W.MainClass, W.Args);
  EXPECT_EQ(Rig.err(), "") << W.Name;
  return {Code, Rig.out()};
}

struct NamedWorkload {
  const char *Name;
  Workload (*Make)();
};

/// Prints the parameter by name. gtest's default prints the struct's raw
/// bytes (two pointers), which made the listed test names, and so the
/// ctest names, change with every run's address layout.
void PrintTo(const NamedWorkload &W, std::ostream *OS) { *OS << W.Name; }

Workload smallRecursive() { return makeRecursive(14, 5); }
Workload smallBinaryTrees() { return makeBinaryTrees(6); }
Workload smallNQueens() { return makeNQueens(6); }
Workload smallDeltaBlue() { return makeDeltaBlue(20, 10); }
Workload smallPiDigits() { return makePiDigits(30); }
Workload smallClassDump() { return makeClassDump(8); }
Workload smallMiniCompile() { return makeMiniCompile(4); }

class WorkloadDifferential
    : public ::testing::TestWithParam<NamedWorkload> {};

TEST_P(WorkloadDifferential, SameOutputInBothModes) {
  Workload W = GetParam().Make();
  auto [CodeJs, OutJs] =
      runWorkload(W, ExecutionMode::DoppioJS, browser::chromeProfile());
  auto [CodeNative, OutNative] = runWorkload(
      W, ExecutionMode::NativeHotspot, browser::chromeProfile());
  EXPECT_EQ(CodeJs, 0);
  EXPECT_EQ(CodeNative, 0);
  EXPECT_EQ(OutJs, OutNative) << W.Name;
  EXPECT_FALSE(OutJs.empty());
}

TEST_P(WorkloadDifferential, RunsOnEveryBrowser) {
  // §7.1: "DoppioJVM is able to successfully execute all of these
  // applications to completion" across the browsers.
  Workload W = GetParam().Make();
  std::string Reference;
  for (const browser::Profile &P : browser::allProfiles()) {
    auto [Code, Out] = runWorkload(W, ExecutionMode::DoppioJS, P);
    EXPECT_EQ(Code, 0) << W.Name << " on " << P.Name;
    if (Reference.empty())
      Reference = Out;
    else
      EXPECT_EQ(Out, Reference) << W.Name << " on " << P.Name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    All, WorkloadDifferential,
    ::testing::Values(NamedWorkload{"recursive", smallRecursive},
                      NamedWorkload{"binarytrees", smallBinaryTrees},
                      NamedWorkload{"nqueens", smallNQueens},
                      NamedWorkload{"deltablue", smallDeltaBlue},
                      NamedWorkload{"pidigits", smallPiDigits},
                      NamedWorkload{"classdump", smallClassDump},
                      NamedWorkload{"minicompile", smallMiniCompile}),
    [](const auto &Info) { return std::string(Info.param.Name); });

TEST(WorkloadOutputs, KnownAnswers) {
  // fib(14) = 377; tak(15,10,5) = 6? — verify against golden values.
  auto [C1, Recursive] = runWorkload(
      makeRecursive(14, 5), ExecutionMode::NativeHotspot,
      browser::chromeProfile());
  EXPECT_EQ(C1, 0);
  EXPECT_EQ(Recursive.substr(0, 4), "377\n");
  // nqueens(6) = 4 solutions, nqueens(8) = 92.
  auto [C2, Q6] = runWorkload(makeNQueens(6), ExecutionMode::NativeHotspot,
                              browser::chromeProfile());
  EXPECT_EQ(C2, 0);
  EXPECT_EQ(Q6, "4\n");
  auto [C3, Q8] = runWorkload(makeNQueens(8), ExecutionMode::NativeHotspot,
                              browser::chromeProfile());
  EXPECT_EQ(C3, 0);
  EXPECT_EQ(Q8, "92\n");
}

TEST(WorkloadOutputs, PiDigitsAreCorrect) {
  auto [Code, Out] = runWorkload(makePiDigits(25),
                                 ExecutionMode::NativeHotspot,
                                 browser::chromeProfile());
  EXPECT_EQ(Code, 0);
  EXPECT_EQ(Out.substr(0, 25), "3141592653589793238462643");
}

TEST(WorkloadOutputs, ClassDumpParsesEveryFile) {
  Workload W = makeClassDump(8);
  JvmRig Rig(ExecutionMode::NativeHotspot);
  publish(W, Rig.Env.server());
  EXPECT_EQ(Rig.run(W.MainClass), 0);
  // No "bad magic" lines; summary file lists all 8 entries.
  EXPECT_EQ(Rig.out().find("bad magic"), std::string::npos);
  std::string Summary = Rig.fileText("/data/classdump.out");
  int Lines = 0;
  for (char C : Summary)
    Lines += C == '\n';
  EXPECT_EQ(Lines, 8);
  EXPECT_NE(Summary.find("Gen0.class cp="), std::string::npos);
}

TEST(WorkloadOutputs, MiniCompileWritesBuildArtifacts) {
  Workload W = makeMiniCompile(4);
  JvmRig Rig(ExecutionMode::NativeHotspot);
  publish(W, Rig.Env.server());
  EXPECT_EQ(Rig.run(W.MainClass), 0);
  for (int I = 0; I != 4; ++I) {
    std::string OutFile =
        Rig.fileText("/data/build/Gen" + std::to_string(I) + ".src.out");
    EXPECT_EQ(OutFile.substr(0, 7), "tokens=") << I;
  }
}

TEST(WorkloadOutputs, ClassDumpIsFileHeavy) {
  // The javap analog's profile: many files, many reads (the Figure 6
  // trace source and the Safari-leak trigger).
  Workload W = makeClassDump(30);
  JvmRig Rig(ExecutionMode::DoppioJS);
  publish(W, Rig.Env.server());
  EXPECT_EQ(Rig.run(W.MainClass), 0);
  EXPECT_GE(Rig.Fs->cells().UniqueFiles->value(), 30u);
  EXPECT_GT(Rig.Fs->cells().BytesRead->value(), 1000u);
  EXPECT_GT(Rig.Fs->cells().BytesWritten->value(), 100u);
}

} // namespace
