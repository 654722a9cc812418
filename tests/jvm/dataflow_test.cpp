//===- tests/jvm/dataflow_test.cpp ----------------------------------------==//
//
// Dataflow verifier tests (dataflow.h): forged methods are rejected with
// exact pc + diagnostic; every workload method analyzes clean; the loader
// threads the per-method Verified bit through; and check-elided execution
// is observably identical to guarded execution.
//
//===----------------------------------------------------------------------===//

#include "jvm/classfile/dataflow.h"
#include "jvm/classfile/disasm.h"
#include "jvm/classfile/verifier.h"
#include "jvm/classloader.h"
#include "jvm/klass.h"
#include "workloads/workloads.h"

#include "jvm_test_util.h"

#include "gtest/gtest.h"

#include <functional>

using namespace doppio;
using namespace doppio::jvm;
using namespace doppio::testutil;

namespace {

/// Builds a one-method class and analyzes that method.
MethodDataflow analyzeForged(
    const std::string &Desc,
    const std::function<void(MethodBuilder &)> &Forge) {
  ClassBuilder B("t/Forged");
  MethodBuilder &M = B.method(AccPublic | AccStatic, "f", Desc);
  Forge(M);
  ClassFile Cf = B.build();
  const MemberInfo *Target = Cf.findMethod("f", Desc);
  EXPECT_NE(Target, nullptr);
  return analyzeMethodDataflow(Cf, *Target);
}

//===--------------------------------------------------------------------===//
// Negative cases: each forged body must produce exactly the documented
// diagnostic, at the exact pc, with the right severity class.
//===--------------------------------------------------------------------===//

struct NegativeCase {
  const char *Name;
  const char *Desc;
  /// Emits the body; returns the pc the diagnostic must point at.
  std::function<uint32_t(MethodBuilder &)> Forge;
  const char *Message;
  bool MonitorOnly;
};

std::vector<NegativeCase> negativeCases() {
  return {
      {"stack-underflow", "()V",
       [](MethodBuilder &M) {
         M.rawOp(Op::Pop).rawOp(Op::Return);
         return 0u;
       },
       "stack underflow", false},

      {"stack-overflow", "()V",
       [](MethodBuilder &M) {
         // Two pushes against a forged max_stack of 1.
         M.iconst(0).iconst(0).rawOp(Op::Pop).rawOp(Op::Pop)
             .rawOp(Op::Return)
             .overrideMaxStack(1);
         return 1u; // The second iconst_0.
       },
       "stack overflow beyond max_stack 1", false},

      {"stack-type-confusion", "()I",
       [](MethodBuilder &M) {
         M.iconst(0).rawOp(Op::Arraylength).rawOp(Op::Ireturn);
         return 1u;
       },
       "expected reference on stack, found int", false},

      {"two-slot-split", "()V",
       [](MethodBuilder &M) {
         M.lconst(0).rawOp(Op::Pop).rawOp(Op::Return);
         return 1u; // pop on the long's trailing slot.
       },
       "pop splits a two-slot value on the stack", false},

      {"local-type-confusion", "(F)V",
       [](MethodBuilder &M) {
         // iload of the float parameter in slot 0.
         M.rawOp(Op::Iload0).rawOp(Op::Pop).rawOp(Op::Return)
             .overrideMaxStack(1)
             .overrideMaxLocals(1);
         return 0u;
       },
       "local 0 holds float but iload needs int", false},

      {"local-out-of-range", "()V",
       [](MethodBuilder &M) {
         M.rawOp(Op::Iload).rawU1(7).rawOp(Op::Pop).rawOp(Op::Return)
             .overrideMaxStack(1)
             .overrideMaxLocals(1);
         return 0u;
       },
       "local 7 exceeds max_locals 1", false},

      {"return-type-mismatch", "()I",
       [](MethodBuilder &M) {
         M.rawOp(Op::Return);
         return 0u;
       },
       "return in a method returning I", false},

      {"monitorexit-unheld", "(Ljava/lang/Object;)V",
       [](MethodBuilder &M) {
         M.aload(0).rawOp(Op::Monitorexit).rawOp(Op::Return);
         return 1u;
       },
       "monitorexit with no monitor held", true},

      {"return-holding-monitor", "(Ljava/lang/Object;)V",
       [](MethodBuilder &M) {
         M.aload(0).rawOp(Op::Monitorenter).rawOp(Op::Return);
         return 2u;
       },
       "returns while 1 monitor(s) still held", true},
  };
}

TEST(Dataflow, RejectsForgedBodiesWithExactDiagnostics) {
  for (const NegativeCase &C : negativeCases()) {
    uint32_t ExpectedPc = 0;
    MethodDataflow Flow = analyzeForged(
        C.Desc, [&](MethodBuilder &M) { ExpectedPc = C.Forge(M); });
    SCOPED_TRACE(C.Name);
    EXPECT_FALSE(Flow.Ok);
    ASSERT_FALSE(Flow.Errors.empty());
    const VerifyError &E = Flow.Errors.front();
    EXPECT_EQ(E.Pc, ExpectedPc);
    EXPECT_EQ(E.Message, C.Message);
    EXPECT_EQ(E.MonitorOnly, C.MonitorOnly);
    EXPECT_EQ(E.Method, std::string("f") + C.Desc);
  }
}

TEST(Dataflow, RejectsInconsistentMergeAtExactPc) {
  // One branch leaves an int on the stack, the other a float; the merge
  // point is diagnosed at the join pc with both types named.
  ClassBuilder B("t/BadMerge");
  MethodBuilder &M = B.method(AccPublic | AccStatic, "f", "(I)F");
  MethodBuilder::Label L1 = M.newLabel(), L2 = M.newLabel();
  M.iload(0).branch(Op::Ifeq, L1).iconst(3).branch(Op::Goto, L2).bind(L1)
      .fconst(1.0f);
  uint32_t MergePc = static_cast<uint32_t>(M.codeSize());
  M.bind(L2).rawOp(Op::Freturn);
  ClassFile Cf = B.build();
  MethodDataflow Flow = analyzeMethodDataflow(Cf, Cf.Methods.front());
  EXPECT_FALSE(Flow.Ok);
  ASSERT_FALSE(Flow.Errors.empty());
  // The lower-pc path (goto, carrying the int) reaches the join first in
  // the deterministic worklist, so the diagnostic reads "(int vs float)".
  EXPECT_EQ(Flow.Errors.front().Pc, MergePc);
  EXPECT_EQ(Flow.Errors.front().Message,
            "stack type mismatch at merge slot 0 (int vs float)");
}

TEST(Dataflow, MonitorDiagnosticsDoNotRejectTheClass) {
  ClassBuilder B("t/Mon");
  B.addDefaultConstructor();
  MethodBuilder &M =
      B.method(AccPublic | AccStatic, "hold", "(Ljava/lang/Object;)V");
  M.aload(0).rawOp(Op::Monitorenter).rawOp(Op::Return);
  ClassFile Cf = B.build();
  std::vector<VerifyError> Errors = verifyClass(Cf);
  ASSERT_FALSE(Errors.empty());
  for (const VerifyError &E : Errors)
    EXPECT_TRUE(E.MonitorOnly) << E.str();
  EXPECT_FALSE(rejectsClass(Errors));
}

TEST(Dataflow, HardErrorsRejectTheClass) {
  ClassBuilder B("t/Under");
  MethodBuilder &M = B.method(AccPublic | AccStatic, "f", "()V");
  M.rawOp(Op::Pop).rawOp(Op::Return);
  std::vector<VerifyError> Errors = verifyClass(B.build());
  ASSERT_FALSE(Errors.empty());
  EXPECT_TRUE(rejectsClass(Errors));
  EXPECT_EQ(Errors.front().str(), "f()V @0: stack underflow");
}

//===--------------------------------------------------------------------===//
// Positive cases
//===--------------------------------------------------------------------===//

TEST(Dataflow, EveryWorkloadMethodAnalyzesClean) {
  using namespace doppio::workloads;
  for (Workload (*Make)() :
       {+[] { return makeRecursive(10, 4); },
        +[] { return makeBinaryTrees(4); }, +[] { return makeNQueens(5); },
        +[] { return makeDeltaBlue(8, 4); },
        +[] { return makePiDigits(10); },
        +[] { return makeClassDump(2); },
        +[] { return makeMiniCompile(2); }}) {
    Workload W = Make();
    for (const auto &[Name, Bytes] : W.Classes) {
      auto Cf = readClassFile(Bytes);
      ASSERT_TRUE(Cf.ok()) << Name;
      for (const MemberInfo &M : Cf->Methods) {
        if (!M.Code)
          continue;
        MethodDataflow Flow = analyzeMethodDataflow(*Cf, M);
        EXPECT_TRUE(Flow.Ok)
            << Name << " " << M.Name << M.Descriptor << ": "
            << (Flow.Errors.empty() ? std::string("<no diagnostic>")
                                    : Flow.Errors.front().str());
        // The fixpoint reached the entry point at minimum.
        EXPECT_FALSE(Flow.In.empty()) << Name << " " << M.Name;
        EXPECT_EQ(Flow.In.begin()->first, 0u);
      }
    }
  }
}

TEST(Dataflow, EntryStateTypesParametersSlotExactly) {
  ClassBuilder B("t/Entry");
  MethodBuilder &M = B.method(AccPublic | AccStatic, "f", "(IJF)V");
  M.op(Op::Return);
  ClassFile Cf = B.build();
  MethodDataflow Flow = analyzeMethodDataflow(Cf, Cf.Methods.front());
  ASSERT_TRUE(Flow.Ok);
  ASSERT_TRUE(Flow.In.count(0));
  const FrameState &Entry = Flow.In.at(0);
  ASSERT_GE(Entry.Locals.size(), 4u); // int + long (2 slots) + float.
  EXPECT_EQ(Entry.Locals[0], VType::Int);
  EXPECT_EQ(Entry.Locals[1], VType::Long);
  EXPECT_EQ(Entry.Locals[2], VType::LongHi);
  EXPECT_EQ(Entry.Locals[3], VType::Float);
  EXPECT_TRUE(Entry.Stack.empty());
  EXPECT_EQ(Entry.MonitorDepth, 0);
}

TEST(Dataflow, DisassemblerAnnotatesInferredStates) {
  ClassBuilder B("t/Annot");
  MethodBuilder &M = B.method(AccPublic | AccStatic, "f", "(I)I");
  M.iload(0).lconst(7).op(Op::Pop2).op(Op::Ireturn)
      .rawOp(Op::Return); // Dead code past the return.
  ClassFile Cf = B.build();
  const MemberInfo &Target = Cf.Methods.front();
  MethodDataflow Flow = analyzeMethodDataflow(Cf, Target);
  ASSERT_TRUE(Flow.Ok);
  std::string Text = disassembleMethod(Cf, Target, &Flow);
  // Entry state: empty stack; after lconst the stack holds the int plus
  // the two-slot long ("I J=").
  EXPECT_NE(Text.find("; []"), std::string::npos) << Text;
  EXPECT_NE(Text.find("[I J=]"), std::string::npos) << Text;
  EXPECT_NE(Text.find("<unreachable>"), std::string::npos) << Text;
}

//===--------------------------------------------------------------------===//
// Loader integration: Verified bit, rejection, and MonitorOnly demotion.
//===--------------------------------------------------------------------===//

TEST(Dataflow, LoaderRejectsDataflowInvalidClass) {
  JvmRig Rig(ExecutionMode::DoppioJS);
  ClassBuilder Bad("t/Under");
  Bad.method(AccPublic | AccStatic, "f", "()V")
      .rawOp(Op::Pop)
      .rawOp(Op::Return);
  Rig.addClassBytes("t/Under", Bad.bytes());
  ClassBuilder Main("Main");
  Main.method(AccPublic | AccStatic, "main", "([Ljava/lang/String;)V")
      .invokestatic("t/Under", "f", "()V")
      .op(Op::Return);
  Rig.addClass(Main);
  EXPECT_EQ(Rig.run("Main"), 1);
  EXPECT_NE(Rig.err().find("NoClassDefFoundError"), std::string::npos)
      << Rig.err();
  EXPECT_NE(Rig.err().find("t/Under"), std::string::npos) << Rig.err();
}

TEST(Dataflow, LoaderMarksVerifiedAndDemotesMonitorOnly) {
  JvmRig Rig(ExecutionMode::DoppioJS);
  // t/Mon.hold leaks a monitor (MonitorOnly diagnostic): the class still
  // loads, but that one method runs guarded.
  ClassBuilder Mon("t/Mon");
  Mon.method(AccPublic | AccStatic, "hold", "(Ljava/lang/Object;)V")
      .aload(0)
      .rawOp(Op::Monitorenter)
      .rawOp(Op::Return);
  Mon.method(AccPublic | AccStatic, "clean", "(I)I")
      .iload(0)
      .op(Op::Ireturn);
  Rig.addClassBytes("t/Mon", Mon.bytes());
  ClassBuilder Main("Main");
  Main.method(AccPublic | AccStatic, "main", "([Ljava/lang/String;)V")
      .anew("java/lang/Object")
      .op(Op::Dup)
      .invokespecial("java/lang/Object", "<init>", "()V")
      .invokestatic("t/Mon", "hold", "(Ljava/lang/Object;)V")
      .iconst(5)
      .invokestatic("t/Mon", "clean", "(I)I")
      .op(Op::Pop)
      .op(Op::Return);
  Rig.addClass(Main);
  ASSERT_EQ(Rig.run("Main"), 0) << Rig.err();

  Klass *MonK = Rig.vm().loader().lookup("t/Mon");
  ASSERT_NE(MonK, nullptr);
  for (const auto &M : MonK->Methods) {
    if (M->key() == "hold(Ljava/lang/Object;)V")
      EXPECT_FALSE(M->Verified);
    if (M->key() == "clean(I)I")
      EXPECT_TRUE(M->Verified);
  }
  Klass *MainK = Rig.vm().loader().lookup("Main");
  ASSERT_NE(MainK, nullptr);
  for (const auto &M : MainK->Methods)
    if (M->key() == "main([Ljava/lang/String;)V")
      EXPECT_TRUE(M->Verified);
}

//===--------------------------------------------------------------------===//
// Check-elision differential: trusted and guarded execution must be
// observably identical on real programs.
//===--------------------------------------------------------------------===//

TEST(Dataflow, ElisionOnAndOffProduceIdenticalRuns) {
  using namespace doppio::workloads;
  for (Workload (*Make)() : {+[] { return makeRecursive(8, 4); },
                             +[] { return makePiDigits(12); }}) {
    Workload W = Make();
    std::string Outs[2];
    int Exits[2];
    for (int Trust = 0; Trust != 2; ++Trust) {
      JvmRig Rig(ExecutionMode::DoppioJS);
      workloads::publish(W, Rig.Env.server());
      Rig.Options.Exec.TrustVerifier = Trust == 1;
      Exits[Trust] = Rig.run(W.MainClass, W.Args);
      Outs[Trust] = Rig.out();
    }
    EXPECT_EQ(Exits[0], Exits[1]) << W.Name;
    EXPECT_EQ(Outs[0], Outs[1]) << W.Name;
    EXPECT_FALSE(Outs[1].empty()) << W.Name;
  }
}

TEST(Dataflow, TrustVerifierEnvOverrideIsHonored) {
  // DOPPIO_JVM_PROFILE=trust=0 forces guarded execution even with the
  // default options.
  setenv("DOPPIO_JVM_PROFILE", "trust=0", 1);
  {
    JvmRig Rig(ExecutionMode::DoppioJS);
    EXPECT_FALSE(Rig.vm().profile().TrustVerifier);
  }
  unsetenv("DOPPIO_JVM_PROFILE");
  {
    JvmRig Rig(ExecutionMode::DoppioJS);
    EXPECT_TRUE(Rig.vm().profile().TrustVerifier);
  }
}

} // namespace
