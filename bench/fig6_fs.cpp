//===- bench/fig6_fs.cpp - Figure 6: file system performance -------------===//
//
// Regenerates Figure 6: the Doppio file system replaying the recorded
// javac trace (3185 ops, 1560 files, 10.5 MB read, 97 KB written) per
// browser, relative to Node JS on the native OS file system.
//
// Paper shape: IE10 is nearly native (~1.18x) — its setImmediate makes
// each blocking call's resumption nearly free — while Chrome is ~2.5x
// (sendMessage resumption per call); Safari suffers the typed-array leak.
//
// Extension beyond the paper: the same trace against each storage
// backend, showing what localStorage serialization and cloud latency
// cost — and the storage hierarchy (DESIGN.md §19) recovering it. The
// cached rows put the write-back block cache + journal in front of the
// slow stores; the warm cached-cloud pass is the acceptance gate: it must
// land within 2x of the inmemory backend on Chrome (exit code 1
// otherwise, and also when a backend fails to load), versus the
// WAN-round-trip-per-operation cliff of raw cloud storage.
//
//===----------------------------------------------------------------------===//

#include "bench_util.h"

#include "doppio/backends/kv_backend.h"
#include "doppio/backends/kv_store.h"
#include "doppio/storage/cached_store.h"
#include "workloads/fstrace.h"

#include <map>

using namespace doppio;
using namespace doppio::bench;
using namespace doppio::rt;
using namespace doppio::workloads;

namespace {

/// Builds the root backend named by \p Backend ("inmemory", "indexeddb",
/// "cloud", "cached-cloud", "journal-idb"). Returns null when the browser
/// lacks the mechanism (no IndexedDB). A key-value root comes back loaded:
/// the loop runs until initialize() completes, and a failed load is
/// stored in \p LoadError.
std::unique_ptr<fs::FileSystemBackend>
makeRoot(browser::BrowserEnv &Env, const std::string &Backend,
         std::optional<ApiError> &LoadError) {
  if (Backend == "inmemory")
    return std::make_unique<fs::InMemoryBackend>(Env);

  std::unique_ptr<fs::AsyncKvStore> Store;
  if (Backend == "indexeddb" || Backend == "journal-idb") {
    if (!Env.indexedDB())
      return nullptr;
    Env.indexedDB()->setQuotaBytes(256u << 20);
    Store = std::make_unique<fs::IndexedDbKv>(Env);
  } else {
    Store = std::make_unique<fs::CloudKv>(Env);
  }
  if (Backend == "cached-cloud" || Backend == "journal-idb")
    Store = std::make_unique<storage::CachedKvStore>(Env, std::move(Store));

  auto Kv = std::make_unique<fs::KeyValueBackend>(Env, std::move(Store));
  bool Loaded = false;
  Kv->initialize([&](std::optional<ApiError> E) {
    Loaded = true;
    LoadError = std::move(E);
  });
  while (!Loaded && Env.loop().runOne()) {
  }
  if (!Loaded)
    LoadError = ApiError(Errno::Io, "initialize() never completed");
  return Kv;
}

/// Replays the trace \p Passes times over one backend instance in one
/// browser; returns per-pass stats (pass 0 is cold, later passes run with
/// the cache warm). An empty vector means the backend is unavailable; a
/// backend that fails to load yields passes with no operations and one
/// error each.
std::vector<ReplayStats> replayOn(const browser::Profile &P,
                                  const std::string &Backend,
                                  unsigned Passes) {
  browser::BrowserEnv Env(P);
  Process Proc;
  std::optional<ApiError> LoadError;
  std::unique_ptr<fs::FileSystemBackend> Root =
      makeRoot(Env, Backend, LoadError);
  if (!Root)
    return {};
  if (LoadError) {
    fprintf(stderr, "fig6: %s on %s failed to load: %s\n", Backend.c_str(),
            P.Name.c_str(), LoadError->message().c_str());
    ReplayStats Failed;
    Failed.Errors = 1;
    return std::vector<ReplayStats>(Passes, Failed);
  }
  fs::FileSystem Fs(Env, Proc, std::move(Root));
  Suspender Susp(Env);
  FsTrace Trace = makeJavacTrace();
  std::vector<ReplayStats> Out;
  for (unsigned I = 0; I != Passes; ++I) {
    ReplayStats S;
    replayTrace(Trace, Fs, Env, Susp, [&S](ReplayStats R) { S = R; });
    Out.push_back(S);
  }
  return Out;
}

/// Prints one table row and records it in \p Json; fills \p Factors with
/// the per-profile slowdown factor (-1 for n/a or a failed load). Returns
/// false if any backend of the row failed to load.
bool emitRow(BenchJson &Json, const std::string &Label, uint64_t BaselineNs,
             std::function<ReplayStats(const browser::Profile &)> Run,
             std::map<std::string, double> &Factors) {
  printf("%-17s", Label.c_str());
  BenchJson::Row &R = Json.row(Label);
  bool Loaded = true;
  for (const browser::Profile &P : browser::allProfiles()) {
    ReplayStats S = Run(P);
    if (S.Operations == 0) {
      Loaded = Loaded && S.Errors == 0;
      printf(" %10s", S.Errors ? "FAIL" : "n/a");
      R.metric(P.Name, -1);
      Factors[P.Name] = -1;
      continue;
    }
    double Factor =
        static_cast<double>(S.VirtualNs) / static_cast<double>(BaselineNs);
    printf(" %9.2fx", Factor);
    R.metric(P.Name, Factor);
    Factors[P.Name] = Factor;
  }
  printf("\n");
  return Loaded;
}

/// Returns true iff every backend loaded and the cached-storage acceptance
/// gate holds.
bool printFigure6() {
  FsTrace Trace = makeJavacTrace();
  printf("==========================================================\n");
  printf("Figure 6: Doppio FS replaying the javac trace, relative to\n");
  printf("Node JS on the native file system\n");
  printf("trace: %zu ops, %zu unique files, %.1f MB read, %llu KB "
         "written\n",
         Trace.Ops.size(), Trace.uniqueFiles(),
         static_cast<double>(Trace.ExpectedReadBytes) / (1024.0 * 1024.0),
         static_cast<unsigned long long>(Trace.ExpectedWriteBytes / 1024));
  printf("(paper: 3185 ops, 1560 files, 10.5 MB read, 97 KB written;\n");
  printf(" IE10 ~1.18x, Chrome ~2.5x)\n");
  printf("==========================================================\n");
  uint64_t BaselineNs = nativeBaselineNs(Trace);
  printf("native baseline (Node on OS fs, modeled): %.1f ms\n\n",
         static_cast<double>(BaselineNs) / 1e6);
  printf("%-17s", "backend");
  for (const browser::Profile &P : browser::allProfiles())
    printf(" %10s", P.Name.c_str());
  printf("\n");
  BenchJson Json("fig6_fs");
  std::map<std::string, std::map<std::string, double>> Factors;
  bool Loaded = true;

  for (const char *Backend : {"inmemory", "indexeddb", "cloud"})
    Loaded &= emitRow(Json, Backend, BaselineNs,
                      [&](const browser::Profile &P) {
                        auto V = replayOn(P, Backend, 1);
                        return V.empty() ? ReplayStats() : V[0];
                      },
                      Factors[Backend]);

  // Cached rows: one run per profile per backend, two passes over the
  // same cache. The untimed seeding writes the 10.5 MB working set
  // through the write-back cache, so pass 0 reads from memory wherever
  // the per-profile capacity holds the set (chrome: 64 MB) and thrashes
  // over the slow store where it does not (safari: 1 MB); pass 1 is the
  // steady warm state the 2x acceptance gate measures.
  for (const char *Backend : {"cached-cloud", "journal-idb"}) {
    std::map<std::string, std::vector<ReplayStats>> Runs;
    for (const browser::Profile &P : browser::allProfiles())
      Runs[P.Name] = replayOn(P, Backend, 2);
    Loaded &= emitRow(Json, Backend, BaselineNs,
                      [&](const browser::Profile &P) {
                        auto &V = Runs[P.Name];
                        return V.empty() ? ReplayStats() : V[0];
                      },
                      Factors[Backend]);
    std::string WarmLabel = std::string(Backend) + "+warm";
    Loaded &= emitRow(Json, WarmLabel, BaselineNs,
                      [&](const browser::Profile &P) {
                        auto &V = Runs[P.Name];
                        return V.size() < 2 ? ReplayStats() : V[1];
                      },
                      Factors[WarmLabel]);
  }

  // The DESIGN.md §19 acceptance gate: warm cached-cloud within 2x of
  // inmemory on Chrome. Raw cloud pays a WAN round trip per operation;
  // warm, the cache must absorb nearly all of them.
  double Inmem = Factors["inmemory"]["chrome"];
  double Warm = Factors["cached-cloud+warm"]["chrome"];
  bool GateOk = Inmem > 0 && Warm > 0 && Warm <= 2.0 * Inmem;
  Json.gate("gate_warm_over_inmemory_chrome", Inmem > 0 ? Warm / Inmem : -1);
  Json.gate("gate_ok", GateOk ? 1 : 0);
  Json.write();
  printf("\ngate: warm cached-cloud %.2fx vs inmemory %.2fx on chrome "
         "(ratio %.2f, limit 2.00) -> %s\n",
         Warm, Inmem, Inmem > 0 ? Warm / Inmem : -1.0,
         GateOk ? "OK" : "FAIL");
  printf("(inmemory is the paper's configuration; the per-browser\n"
         " differences come from each browser's resumption mechanism —\n"
         " IE10's setImmediate is why it is near-native, §4.4. Safari\n"
         " pays the typed-array leak: 10.5 MB of file buffers leak and\n"
         " page. The cached rows are the DESIGN.md §19 storage hierarchy:\n"
         " a write-back block cache + log-structured journal in front of\n"
         " the slow store. journal-idb is the same cache over IndexedDB,\n"
         " group-committing the journal instead of writing through.)\n\n");
  if (!Loaded)
    printf("FAIL: a backend failed to load (rows marked FAIL)\n");
  return GateOk && Loaded;
}

} // namespace

int main() { return printFigure6() ? 0 : 1; }
