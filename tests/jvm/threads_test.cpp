//===- tests/jvm/threads_test.cpp -----------------------------------------==//
//
// JVM multithreading over the Doppio thread pool (§4.3/§6.2): thread
// start/join, synchronized methods and blocks, wait/notify, sleep, and the
// responsiveness guarantee of automatic event segmentation (§4.1).
//
//===----------------------------------------------------------------------===//

#include "jvm_test_util.h"

#include "gtest/gtest.h"

using namespace doppio;
using namespace doppio::jvm;
using namespace doppio::testutil;

namespace {

const char *Out = "Ljava/io/PrintStream;";

MethodBuilder &mainOf(ClassBuilder &B) {
  return B.method(AccPublic | AccStatic, "main",
                  "([Ljava/lang/String;)V");
}

void printlnInt(MethodBuilder &M) {
  M.getstatic("java/lang/System", "out", Out)
      .op(Op::Swap)
      .invokevirtual("java/io/PrintStream", "println", "(I)V");
}

/// Builds: class Worker extends Thread { Counter c; int n;
///           void run() { for (i=0;i<n;i++) c.inc(); } }
/// and: class Counter { int v; synchronized void inc(){v++;}
///                      int get(){return v;} }
void addCounterClasses(JvmRig &Rig) {
  ClassBuilder Counter("Counter");
  Counter.addField(AccPrivate, "v", "I");
  Counter.addDefaultConstructor();
  MethodBuilder &Inc =
      Counter.method(AccPublic | AccSynchronized, "inc", "()V");
  Inc.aload(0)
      .aload(0)
      .getfield("Counter", "v", "I")
      .iconst(1)
      .op(Op::Iadd)
      .putfield("Counter", "v", "I")
      .op(Op::Return);
  MethodBuilder &Get = Counter.method(AccPublic, "get", "()I");
  Get.aload(0).getfield("Counter", "v", "I").op(Op::Ireturn);
  Rig.addClass(Counter);

  ClassBuilder Worker("Worker", "java/lang/Thread");
  Worker.addField(AccPublic, "c", "LCounter;");
  Worker.addField(AccPublic, "n", "I");
  Worker.addDefaultConstructor();
  MethodBuilder &Run = Worker.method(AccPublic, "run", "()V");
  MethodBuilder::Label Loop = Run.newLabel(), Done = Run.newLabel();
  Run.iconst(0)
      .istore(1)
      .bind(Loop)
      .iload(1)
      .aload(0)
      .getfield("Worker", "n", "I")
      .branch(Op::IfIcmpge, Done)
      .aload(0)
      .getfield("Worker", "c", "LCounter;")
      .invokevirtual("Counter", "inc", "()V")
      .iinc(1, 1)
      .branch(Op::Goto, Loop)
      .bind(Done)
      .op(Op::Return);
  Rig.addClass(Worker);
}

class ThreadModes : public ::testing::TestWithParam<ExecutionMode> {};

TEST_P(ThreadModes, TwoThreadsIncrementSharedCounter) {
  JvmRig Rig(GetParam());
  addCounterClasses(Rig);
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  // Counter c = new Counter();
  M.anew("Counter")
      .op(Op::Dup)
      .invokespecial("Counter", "<init>", "()V")
      .astore(1);
  // Two workers, 500 increments each.
  for (int Slot : {2, 3}) {
    M.anew("Worker")
        .op(Op::Dup)
        .invokespecial("Worker", "<init>", "()V")
        .astore(Slot)
        .aload(Slot)
        .aload(1)
        .putfield("Worker", "c", "LCounter;")
        .aload(Slot)
        .iconst(500)
        .putfield("Worker", "n", "I")
        .aload(Slot)
        .invokevirtual("java/lang/Thread", "start", "()V");
  }
  M.aload(2).invokevirtual("java/lang/Thread", "join", "()V");
  M.aload(3).invokevirtual("java/lang/Thread", "join", "()V");
  M.aload(1).invokevirtual("Counter", "get", "()I");
  printlnInt(M);
  M.op(Op::Return);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "1000\n");
}

TEST_P(ThreadModes, JoinWaitsForCompletion) {
  // Worker sets a flag; main joins then reads: never sees the old value.
  JvmRig Rig(GetParam());
  ClassBuilder Flag("Flag");
  Flag.addField(AccPublic, "v", "I");
  Flag.addDefaultConstructor();
  Rig.addClass(Flag);
  ClassBuilder Setter("Setter", "java/lang/Thread");
  Setter.addField(AccPublic, "f", "LFlag;");
  Setter.addDefaultConstructor();
  MethodBuilder &Run = Setter.method(AccPublic, "run", "()V");
  // Sleep a little, then set.
  Run.lconst(20)
      .invokestatic("java/lang/Thread", "sleep", "(J)V")
      .aload(0)
      .getfield("Setter", "f", "LFlag;")
      .iconst(123)
      .putfield("Flag", "v", "I")
      .op(Op::Return);
  Rig.addClass(Setter);
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  M.anew("Flag")
      .op(Op::Dup)
      .invokespecial("Flag", "<init>", "()V")
      .astore(1)
      .anew("Setter")
      .op(Op::Dup)
      .invokespecial("Setter", "<init>", "()V")
      .astore(2)
      .aload(2)
      .aload(1)
      .putfield("Setter", "f", "LFlag;")
      .aload(2)
      .invokevirtual("java/lang/Thread", "start", "()V")
      .aload(2)
      .invokevirtual("java/lang/Thread", "join", "()V")
      .aload(1)
      .getfield("Flag", "v", "I");
  printlnInt(M);
  M.op(Op::Return);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "123\n");
}

TEST_P(ThreadModes, RunnableTargetThread) {
  JvmRig Rig(GetParam());
  ClassBuilder Task("Task");
  Task.addInterface("java/lang/Runnable");
  Task.addDefaultConstructor();
  MethodBuilder &Run = Task.method(AccPublic, "run", "()V");
  Run.getstatic("java/lang/System", "out", Out)
      .ldcString("task ran")
      .invokevirtual("java/io/PrintStream", "println",
                     "(Ljava/lang/String;)V")
      .op(Op::Return);
  Rig.addClass(Task);
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  M.anew("java/lang/Thread")
      .op(Op::Dup)
      .anew("Task")
      .op(Op::Dup)
      .invokespecial("Task", "<init>", "()V")
      .invokespecial("java/lang/Thread", "<init>",
                     "(Ljava/lang/Runnable;)V")
      .astore(1)
      .aload(1)
      .invokevirtual("java/lang/Thread", "start", "()V")
      .aload(1)
      .invokevirtual("java/lang/Thread", "join", "()V")
      .op(Op::Return);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "task ran\n");
}

TEST_P(ThreadModes, StartingTwiceThrows) {
  JvmRig Rig(GetParam());
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  MethodBuilder::Label Start = M.newLabel(), End = M.newLabel(),
                       Handler = M.newLabel(), After = M.newLabel();
  M.anew("java/lang/Thread")
      .op(Op::Dup)
      .invokespecial("java/lang/Thread", "<init>", "()V")
      .astore(1)
      .aload(1)
      .invokevirtual("java/lang/Thread", "start", "()V")
      .bind(Start)
      .aload(1)
      .invokevirtual("java/lang/Thread", "start", "()V")
      .bind(End)
      .branch(Op::Goto, After)
      .bind(Handler)
      .op(Op::Pop)
      .iconst(2);
  printlnInt(M);
  M.bind(After).op(Op::Return).handler(
      Start, End, Handler, "java/lang/IllegalThreadStateException");
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "2\n");
}

TEST_P(ThreadModes, WaitNotifyProducerConsumer) {
  JvmRig Rig(GetParam());
  // class Box { int value; int full;
  //   synchronized void put(int v) { while (full != 0) wait();
  //                                   value = v; full = 1; notifyAll(); }
  //   synchronized int take() { while (full == 0) wait();
  //                              full = 0; notifyAll(); return value; } }
  ClassBuilder Box("Box");
  Box.addField(AccPrivate, "value", "I");
  Box.addField(AccPrivate, "full", "I");
  Box.addDefaultConstructor();
  {
    MethodBuilder &Put =
        Box.method(AccPublic | AccSynchronized, "put", "(I)V");
    MethodBuilder::Label Check = Put.newLabel(), Ready = Put.newLabel();
    Put.bind(Check)
        .aload(0)
        .getfield("Box", "full", "I")
        .branch(Op::Ifeq, Ready)
        .aload(0)
        .invokevirtual("java/lang/Object", "wait", "()V")
        .branch(Op::Goto, Check)
        .bind(Ready)
        .aload(0)
        .iload(1)
        .putfield("Box", "value", "I")
        .aload(0)
        .iconst(1)
        .putfield("Box", "full", "I")
        .aload(0)
        .invokevirtual("java/lang/Object", "notifyAll", "()V")
        .op(Op::Return);
  }
  {
    MethodBuilder &Take =
        Box.method(AccPublic | AccSynchronized, "take", "()I");
    MethodBuilder::Label Check = Take.newLabel(), Ready = Take.newLabel();
    Take.bind(Check)
        .aload(0)
        .getfield("Box", "full", "I")
        .branch(Op::Ifne, Ready)
        .aload(0)
        .invokevirtual("java/lang/Object", "wait", "()V")
        .branch(Op::Goto, Check)
        .bind(Ready)
        .aload(0)
        .iconst(0)
        .putfield("Box", "full", "I")
        .aload(0)
        .invokevirtual("java/lang/Object", "notifyAll", "()V")
        .aload(0)
        .getfield("Box", "value", "I")
        .op(Op::Ireturn);
  }
  Rig.addClass(Box);
  // class Producer extends Thread { Box b; void run() {
  //   for (i = 1; i <= 5; i++) b.put(i * 10); } }
  ClassBuilder Producer("Producer", "java/lang/Thread");
  Producer.addField(AccPublic, "b", "LBox;");
  Producer.addDefaultConstructor();
  {
    MethodBuilder &Run = Producer.method(AccPublic, "run", "()V");
    MethodBuilder::Label Loop = Run.newLabel(), Done = Run.newLabel();
    Run.iconst(1)
        .istore(1)
        .bind(Loop)
        .iload(1)
        .iconst(5)
        .branch(Op::IfIcmpgt, Done)
        .aload(0)
        .getfield("Producer", "b", "LBox;")
        .iload(1)
        .iconst(10)
        .op(Op::Imul)
        .invokevirtual("Box", "put", "(I)V")
        .iinc(1, 1)
        .branch(Op::Goto, Loop)
        .bind(Done)
        .op(Op::Return);
  }
  Rig.addClass(Producer);
  // main: start producer; take 5 values; print their sum (10+..+50=150).
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  MethodBuilder::Label Loop = M.newLabel(), Done = M.newLabel();
  M.anew("Box")
      .op(Op::Dup)
      .invokespecial("Box", "<init>", "()V")
      .astore(1)
      .anew("Producer")
      .op(Op::Dup)
      .invokespecial("Producer", "<init>", "()V")
      .astore(2)
      .aload(2)
      .aload(1)
      .putfield("Producer", "b", "LBox;")
      .aload(2)
      .invokevirtual("java/lang/Thread", "start", "()V")
      .iconst(0)
      .istore(3) // sum
      .iconst(0)
      .istore(4) // i
      .bind(Loop)
      .iload(4)
      .iconst(5)
      .branch(Op::IfIcmpge, Done)
      .iload(3)
      .aload(1)
      .invokevirtual("Box", "take", "()I")
      .op(Op::Iadd)
      .istore(3)
      .iinc(4, 1)
      .branch(Op::Goto, Loop)
      .bind(Done)
      .iload(3);
  printlnInt(M);
  M.op(Op::Return);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "150\n");
}

TEST_P(ThreadModes, MonitorEnterExitInstructions) {
  // Explicit monitorenter/monitorexit around a critical section.
  JvmRig Rig(GetParam());
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  M.anew("java/lang/Object")
      .op(Op::Dup)
      .invokespecial("java/lang/Object", "<init>", "()V")
      .astore(1)
      .aload(1)
      .op(Op::Monitorenter)
      .aload(1)
      .op(Op::Monitorenter) // Reentrant.
      .iconst(5);
  printlnInt(M);
  M.aload(1)
      .op(Op::Monitorexit)
      .aload(1)
      .op(Op::Monitorexit)
      .op(Op::Return);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "5\n");
}

TEST_P(ThreadModes, UnownedMonitorExitThrows) {
  JvmRig Rig(GetParam());
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  MethodBuilder::Label Start = M.newLabel(), End = M.newLabel(),
                       Handler = M.newLabel(), After = M.newLabel();
  M.anew("java/lang/Object")
      .op(Op::Dup)
      .invokespecial("java/lang/Object", "<init>", "()V")
      .astore(1)
      .bind(Start)
      .aload(1)
      .op(Op::Monitorexit)
      .bind(End)
      .branch(Op::Goto, After)
      .bind(Handler)
      .op(Op::Pop)
      .iconst(1);
  printlnInt(M);
  M.bind(After).op(Op::Return).handler(
      Start, End, Handler, "java/lang/IllegalMonitorStateException");
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "1\n");
}

INSTANTIATE_TEST_SUITE_P(Modes, ThreadModes,
                         ::testing::Values(ExecutionMode::DoppioJS,
                                           ExecutionMode::NativeHotspot),
                         [](const auto &Info) {
                           return std::string(
                               executionModeName(Info.param));
                         });

//===--------------------------------------------------------------------===//
// Segmentation & responsiveness (§4.1/§6.1) — DoppioJS mode only.
//===--------------------------------------------------------------------===//

TEST(Segmentation, LongJvmComputationKeepsPageResponsive) {
  JvmRig Rig(ExecutionMode::DoppioJS);
  ClassBuilder B("Main");
  MethodBuilder &M = mainOf(B);
  // A tight ~2M-iteration loop calling a method each time (the call
  // boundary carries the suspend check, §6.1).
  MethodBuilder &Tick = B.method(AccPublic | AccStatic, "tick", "(I)I");
  Tick.iload(0).iconst(1).op(Op::Iadd).op(Op::Ireturn);
  MethodBuilder::Label Loop = M.newLabel(), Done = M.newLabel();
  M.iconst(0).istore(1);
  M.bind(Loop)
      .iload(1)
      .iconst(2000000)
      .branch(Op::IfIcmpge, Done)
      .iload(1)
      .invokestatic("Main", "tick", "(I)I")
      .istore(1)
      .branch(Op::Goto, Loop)
      .bind(Done)
      .iload(1);
  printlnInt(M);
  M.op(Op::Return);
  Rig.addClass(B);
  // Synthetic user input throughout the run.
  for (int I = 1; I <= 20; ++I)
    Rig.Env.loop().postAfter(kernel::Lane::Input, [] {},
                             browser::msToNs(40) * I);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.out(), "2000000\n");
  EXPECT_FALSE(Rig.Env.loop().watchdogFired())
      << "event segmentation must keep every event short (§4.1)";
  EXPECT_GT(Rig.vm().stats().SuspendYields, 5u);
  EXPECT_LT(Rig.Env.loop().cells().MaxInputLatencyNs->value(),
            browser::msToNs(60))
      << "user input must not wait behind the computation";
}

TEST(Segmentation, NativeModeNeverSuspends) {
  JvmRig Rig(ExecutionMode::NativeHotspot);
  ClassBuilder B("Main");
  MethodBuilder &Tick = B.method(AccPublic | AccStatic, "tick", "(I)I");
  Tick.iload(0).iconst(1).op(Op::Iadd).op(Op::Ireturn);
  MethodBuilder &M = mainOf(B);
  MethodBuilder::Label Loop = M.newLabel(), Done = M.newLabel();
  M.iconst(0).istore(1);
  M.bind(Loop)
      .iload(1)
      .iconst(100000)
      .branch(Op::IfIcmpge, Done)
      .iload(1)
      .invokestatic("Main", "tick", "(I)I")
      .istore(1)
      .branch(Op::Goto, Loop)
      .bind(Done)
      .iload(1);
  printlnInt(M);
  M.op(Op::Return);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  EXPECT_EQ(Rig.vm().stats().SuspendYields, 0u);
}

TEST(Segmentation, SuspensionTimeIsSmallFractionOnChrome) {
  // Figure 5's headline: <2% of runtime suspended in Chrome.
  JvmRig Rig(ExecutionMode::DoppioJS);
  ClassBuilder B("Main");
  MethodBuilder &Tick = B.method(AccPublic | AccStatic, "tick", "(I)I");
  Tick.iload(0).iconst(1).op(Op::Iadd).op(Op::Ireturn);
  MethodBuilder &M = mainOf(B);
  MethodBuilder::Label Loop = M.newLabel(), Done = M.newLabel();
  M.iconst(0).istore(1);
  M.bind(Loop)
      .iload(1)
      .iconst(1000000)
      .branch(Op::IfIcmpge, Done)
      .iload(1)
      .invokestatic("Main", "tick", "(I)I")
      .istore(1)
      .branch(Op::Goto, Loop)
      .bind(Done)
      .op(Op::Return);
  Rig.addClass(B);
  EXPECT_EQ(Rig.run("Main"), 0);
  uint64_t Suspended = Rig.vm().suspender().totalSuspendedNs();
  uint64_t Total = Rig.Env.clock().nowNs();
  ASSERT_GT(Total, 0u);
  double Fraction = static_cast<double>(Suspended) /
                    static_cast<double>(Total);
  EXPECT_LT(Fraction, 0.02)
      << "sendMessage resumption keeps suspension under 2% (§7.1)";
  EXPECT_GT(Rig.vm().suspender().resumptionCount(), 0u);
}

} // namespace
