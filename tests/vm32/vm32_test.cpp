//===- tests/vm32/vm32_test.cpp -------------------------------------------==//
//
// The §7.2 case study as tests: the same "compiled C++" game under plain
// Emscripten hosting (preloads, no saves, watchdog kills, frozen page)
// versus Doppio hosting (lazy assets, persistent saves, responsive page).
//
//===----------------------------------------------------------------------===//

#include "vm32/game.h"
#include "vm32/minivm.h"

#include "doppio/backends/in_memory.h"
#include "doppio/backends/kv_backend.h"
#include "doppio/backends/mountable.h"
#include "doppio/backends/xhr_fs.h"

#include "gtest/gtest.h"

using namespace doppio;
using namespace doppio::vm32;
using namespace doppio::browser;
using rt::fs::FileSystem;

namespace {

/// Deployment rig: assets on the web server, /srv mounted read-only over
/// XHR, /save mounted on localStorage, writable in-memory root.
struct GameRig {
  GameRig(const GameConfig &Config, const Profile &P = chromeProfile())
      : Env(P) {
    for (auto &[Path, Bytes] : makeGameAssets(Config))
      Env.server().addFile(Path, Bytes);
    auto Root = std::make_unique<rt::fs::InMemoryBackend>(Env);
    auto Mounted =
        std::make_unique<rt::fs::MountableFileSystem>(std::move(Root));
    Mounted->mount("/srv",
                   std::make_unique<rt::fs::XhrBackend>(Env, "/srv"));
    auto Saves = std::make_unique<rt::fs::KeyValueBackend>(
        Env, std::make_unique<rt::fs::LocalStorageKv>(Env));
    Saves->initialize([](std::optional<rt::ApiError>) {});
    Mounted->mount("/save", std::move(Saves));
    Fs = std::make_unique<FileSystem>(Env, Proc, std::move(Mounted));
  }

  /// Reads the save file as a fresh backend over the same localStorage
  /// would after a page reload.
  std::string savedProgress() {
    auto Reloaded = std::make_unique<rt::fs::KeyValueBackend>(
        Env, std::make_unique<rt::fs::LocalStorageKv>(Env));
    Reloaded->initialize([](std::optional<rt::ApiError>) {});
    Env.loop().run();
    std::string Out = "<missing>";
    rt::Process Tmp;
    FileSystem Fresh(Env, Tmp, std::move(Reloaded));
    Fresh.readFile("/progress.txt",
                   [&](rt::ErrorOr<std::vector<uint8_t>> R) {
                     if (R)
                       Out.assign(R->begin(), R->end());
                   });
    Env.loop().run();
    return Out;
  }

  BrowserEnv Env;
  rt::Process Proc;
  std::unique_ptr<FileSystem> Fs;
};

TEST(MiniVmCore, ArithmeticAndCalls) {
  GameConfig Config;
  GameRig Rig(Config);
  MProgram P;
  {
    MFunctionBuilder Sq("square", 1);
    Sq.emit(MOp::LoadLocal, 0)
        .emit(MOp::LoadLocal, 0)
        .emit(MOp::Mul)
        .emit(MOp::Ret);
    P.Functions.push_back(Sq.finish());
  }
  {
    MFunctionBuilder Main("main", 0);
    Main.emit(MOp::Push, 12)
        .emit(MOp::Call, 0, 1)
        .emit(MOp::Print)
        .emit(MOp::Push, 0)
        .emit(MOp::Halt);
    P.Functions.push_back(Main.finish());
    P.Entry = 1;
  }
  MiniVm Vm(Rig.Env, *Rig.Fs, P, HostMode::DoppioRt);
  Vm.start();
  Rig.Env.loop().run();
  EXPECT_EQ(Vm.status(), Vm32Status::Finished);
  EXPECT_EQ(Vm.consoleOutput(), "144\n");
}

TEST(MiniVmCore, LoopsAndBranches) {
  GameRig Rig(GameConfig{});
  MProgram P;
  MFunctionBuilder Main("main", 2); // 0=i 1=sum
  auto Loop = Main.newLabel(), Done = Main.newLabel();
  Main.emit(MOp::Push, 0)
      .emit(MOp::StoreLocal, 0)
      .emit(MOp::Push, 0)
      .emit(MOp::StoreLocal, 1)
      .bind(Loop)
      .emit(MOp::LoadLocal, 0)
      .emit(MOp::Push, 10)
      .emit(MOp::CmpLt)
      .jump(MOp::Jz, Done)
      .emit(MOp::LoadLocal, 1)
      .emit(MOp::LoadLocal, 0)
      .emit(MOp::Add)
      .emit(MOp::StoreLocal, 1)
      .emit(MOp::LoadLocal, 0)
      .emit(MOp::Push, 1)
      .emit(MOp::Add)
      .emit(MOp::StoreLocal, 0)
      .jump(MOp::Jmp, Loop)
      .bind(Done)
      .emit(MOp::LoadLocal, 1)
      .emit(MOp::Print)
      .emit(MOp::Push, 0)
      .emit(MOp::Halt);
  P.Functions.push_back(Main.finish());
  P.Entry = 0;
  MiniVm Vm(Rig.Env, *Rig.Fs, P, HostMode::DoppioRt);
  Vm.start();
  Rig.Env.loop().run();
  EXPECT_EQ(Vm.consoleOutput(), "45\n");
}

TEST(ShadowGame, DoppioModeCompletesWithSavesAndLazyAssets) {
  GameConfig Config;
  Config.Levels = 3;
  Config.FramesPerLevel = 400;
  GameRig Rig(Config);
  MiniVm Vm(Rig.Env, *Rig.Fs, buildShadowGame(Config), HostMode::DoppioRt);
  Vm.start();
  Rig.Env.loop().run();
  EXPECT_EQ(Vm.status(), Vm32Status::Finished)
      << Vm.faultReason();
  EXPECT_NE(Vm.consoleOutput().find("game over"), std::string::npos);
  EXPECT_EQ(Vm.stats().Frames, 3u * 400u);
  EXPECT_EQ(Vm.stats().AssetsLoaded, 3u);
  EXPECT_EQ(Vm.stats().AssetBytesPreloaded, 0u)
      << "Doppio mode downloads assets on demand (§7.2)";
  EXPECT_EQ(Vm.stats().SavesSucceeded, 3u);
  // The save survives a "page reload" (fresh backend over localStorage).
  EXPECT_EQ(Rig.savedProgress(), "3");
  EXPECT_FALSE(Rig.Env.loop().watchdogFired());
}

TEST(ShadowGame, EmscriptenModePreloadsEverythingAndCannotSave) {
  GameConfig Config;
  Config.Levels = 3;
  Config.FramesPerLevel = 50; // Short enough to dodge the watchdog.
  GameRig Rig(Config);
  MiniVm Vm(Rig.Env, *Rig.Fs, buildShadowGame(Config),
            HostMode::Emscripten);
  Vm.preloadAndRun(gameAssetPaths(Config));
  Rig.Env.loop().run();
  EXPECT_EQ(Vm.status(), Vm32Status::Finished) << Vm.faultReason();
  // Every asset byte was fetched before main ran (§7.2).
  EXPECT_EQ(Vm.stats().AssetBytesPreloaded,
            3u * static_cast<uint64_t>(Config.AssetBytes));
  // Saves were attempted but nothing persisted.
  EXPECT_EQ(Vm.stats().SavesAttempted, 3u);
  EXPECT_EQ(Vm.stats().SavesSucceeded, 0u);
  EXPECT_EQ(Rig.savedProgress(), "<missing>")
      << "Emscripten's MEMFS writes do not persist (§7.2)";
}

TEST(ShadowGame, EmscriptenModeGetsKilledByWatchdogOnLongRuns) {
  GameConfig Config;
  Config.Levels = 2;
  Config.FramesPerLevel = 40000; // ~6 s of virtual frame time per level.
  GameRig Rig(Config);
  MiniVm Vm(Rig.Env, *Rig.Fs, buildShadowGame(Config),
            HostMode::Emscripten);
  Vm.preloadAndRun(gameAssetPaths(Config));
  Rig.Env.loop().run();
  EXPECT_EQ(Vm.status(), Vm32Status::Killed)
      << "long-running Emscripten events hit the watchdog (§3.1)";
  EXPECT_LT(Vm.stats().Frames, 2u * 40000u);
  EXPECT_TRUE(Rig.Env.loop().watchdogFired());
}

TEST(ShadowGame, DoppioModeSurvivesTheSameLongRun) {
  GameConfig Config;
  Config.Levels = 2;
  Config.FramesPerLevel = 40000;
  GameRig Rig(Config);
  MiniVm Vm(Rig.Env, *Rig.Fs, buildShadowGame(Config), HostMode::DoppioRt);
  // Synthetic user input throughout.
  for (int I = 1; I <= 30; ++I)
    Rig.Env.loop().postAfter(kernel::Lane::Input, [] {}, msToNs(300) * I);
  Vm.start();
  Rig.Env.loop().run();
  EXPECT_EQ(Vm.status(), Vm32Status::Finished) << Vm.faultReason();
  EXPECT_EQ(Vm.stats().Frames, 2u * 40000u);
  EXPECT_FALSE(Rig.Env.loop().watchdogFired());
  EXPECT_GT(Vm.stats().SuspendYields, 10u);
  EXPECT_LT(Rig.Env.loop().cells().MaxInputLatencyNs->value(), msToNs(60))
      << "the page stays responsive under Doppio (§7.2)";
}

TEST(ShadowGame, BothModesComputeTheSameGameState) {
  GameConfig Config;
  Config.Levels = 2;
  Config.FramesPerLevel = 30;
  std::string OutEmscripten, OutDoppio;
  {
    GameRig Rig(Config);
    MiniVm Vm(Rig.Env, *Rig.Fs, buildShadowGame(Config),
              HostMode::Emscripten);
    Vm.preloadAndRun(gameAssetPaths(Config));
    Rig.Env.loop().run();
    EXPECT_EQ(Vm.status(), Vm32Status::Finished);
    OutEmscripten = Vm.consoleOutput();
  }
  {
    GameRig Rig(Config);
    MiniVm Vm(Rig.Env, *Rig.Fs, buildShadowGame(Config),
              HostMode::DoppioRt);
    Vm.start();
    Rig.Env.loop().run();
    EXPECT_EQ(Vm.status(), Vm32Status::Finished);
    OutDoppio = Vm.consoleOutput();
  }
  EXPECT_EQ(OutEmscripten, OutDoppio)
      << "Doppio hosts the unmodified program (§7.2)";
}

} // namespace
