//===- examples/shadow_game.cpp - The §7.2 case study -------------------===//
//
// Runs the "Me and My Shadow" analog twice — once hosted the way plain
// Emscripten output runs in a browser, once on the Doppio runtime — and
// prints the comparison the paper's §7.2 makes: preloading vs lazy asset
// loading, lost vs persistent saves, and a frozen vs responsive page.
//
// Build and run:  ./build/examples/shadow_game
//
//===----------------------------------------------------------------------===//

#include "vm32/game.h"

#include "doppio/backends/in_memory.h"
#include "doppio/backends/kv_backend.h"
#include "doppio/backends/mountable.h"
#include "doppio/backends/xhr_fs.h"

#include <cstdio>

using namespace doppio;
using namespace doppio::vm32;

namespace {

struct Deployment {
  explicit Deployment(const GameConfig &Config)
      : Env(browser::chromeProfile()) {
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
    Fs = std::make_unique<rt::fs::FileSystem>(Env, Proc,
                                              std::move(Mounted));
    // A user clicks every 250 ms of virtual time while the game runs.
    for (int I = 1; I <= 60; ++I)
      Env.loop().postAfter(kernel::Lane::Input, [] {},
                           browser::msToNs(250) * I);
  }

  browser::BrowserEnv Env;
  rt::Process Proc;
  std::unique_ptr<rt::fs::FileSystem> Fs;
};

void report(const char *Title, const MiniVm &Vm,
            browser::BrowserEnv &Env) {
  const MiniVm::Stats &S = Vm.stats();
  printf("%s\n", Title);
  printf("  status               : %s\n", vm32StatusName(Vm.status()));
  if (!Vm.faultReason().empty())
    printf("  reason               : %s\n", Vm.faultReason().c_str());
  printf("  frames simulated     : %llu\n",
         static_cast<unsigned long long>(S.Frames));
  printf("  asset bytes preloaded: %llu\n",
         static_cast<unsigned long long>(S.AssetBytesPreloaded));
  printf("  assets loaded lazily : %llu\n",
         static_cast<unsigned long long>(
             S.AssetBytesPreloaded ? 0 : S.AssetsLoaded));
  printf("  saves: %llu attempted, %llu persisted\n",
         static_cast<unsigned long long>(S.SavesAttempted),
         static_cast<unsigned long long>(S.SavesSucceeded));
  printf("  watchdog kills       : %llu\n",
         static_cast<unsigned long long>(
             Env.loop().cells().WatchdogKills->value()));
  int64_t WorstInputNs = Env.loop().cells().MaxInputLatencyNs->value();
  printf("  worst input latency  : %.1f ms\n",
         static_cast<double>(WorstInputNs) / 1e6);
  printf("\n");
}

} // namespace

int main() {
  GameConfig Config;
  Config.Levels = 3;
  Config.FramesPerLevel = 30000; // ~4.5 s of virtual frame time a level.

  printf("=== Case study (paper §7.2): the same compiled game, two "
         "hostings ===\n\n");

  {
    Deployment D(Config);
    MiniVm Vm(D.Env, *D.Fs, buildShadowGame(Config), HostMode::Emscripten);
    Vm.preloadAndRun(gameAssetPaths(Config));
    D.Env.loop().run();
    report("[plain Emscripten hosting]", Vm, D.Env);
  }
  {
    Deployment D(Config);
    MiniVm Vm(D.Env, *D.Fs, buildShadowGame(Config), HostMode::DoppioRt);
    Vm.start();
    D.Env.loop().run();
    report("[Emscripten + Doppio hosting]", Vm, D.Env);
    printf("Doppio's runtime segments the game loop into short events,\n"
           "downloads each level's assets on demand through the file\n"
           "system, and backs /save with localStorage — so the page stays\n"
           "responsive, nothing is preloaded, and progress persists.\n");
  }
  return 0;
}
