//===- perfbench/src/fs_workload.cpp - The journal-idb storage stack -----===//
//
// Workloads "fs-read" and "fs-write" on chrome's journal-idb stack:
// FileSystem -> KeyValueBackend -> CachedKvStore -> IndexedDbKv.
//
//  - fs-read replays the javac trace (makeJavacTrace) on a warm stack;
//    each op is one blocking guest fs call, from issue to guest
//    resumption through a Suspender. Every read's bytes are checked
//    against the seed generator, every stat's size and readdir's listing
//    against the working set.
//  - fs-write overwrites every file of the trace's working set with fresh
//    seeded contents each round, then syncs; each op is one blocking file
//    write and the sync time joins the ops_per_s time base. Once the last
//    sync is acknowledged, the tab "crashes": every pending event is
//    discarded unrun. A fresh KeyValueBackend is then mounted over the same
//    IndexedDB and every file of the last round is compared byte for byte
//    (untimed), so data the sync acknowledged but left to a later flush
//    counts as lost.
//
// File contents are seeded pseudo-random bytes that differ per file and
// per round, so content-addressed dedup cannot collapse the working set.
//
//===----------------------------------------------------------------------===//

#include "runs.h"

#include "tracer.h"

#include "doppio/backends/kv_backend.h"
#include "doppio/backends/kv_store.h"
#include "doppio/storage/cached_store.h"
#include "doppio/suspend.h"
#include "workloads/fstrace.h"

#include <cstdio>
#include <map>
#include <memory>
#include <unordered_map>

using namespace doppio;
using namespace doppio::rt;
using doppio::workloads::FsTraceOp;

namespace perfbench {
namespace {

constexpr uint64_t IdbQuotaBytes = 256ull << 20;
/// peak_rss_mb is read after this much work (OpLog): fs-read ops, and
/// fs-write rounds.
constexpr uint64_t RssAtReadOps = 500'000;
constexpr uint64_t RssAtWriteRounds = 4;
/// Blocks of fixed work for the timing metrics (OpLog): 16 fs-read passes
/// (about 0.3 s) and two fs-write rounds (about 1 s).
constexpr uint64_t PassesPerBlock = 16;
constexpr uint64_t RoundsPerBlock = 2;

/// One journal-idb stack in one chrome tab. With Decorated set, the
/// benchmark's TimedKv sits above the cache (storage layer) and above the
/// IndexedDB adapter (slow-store layer).
struct Stack {
  browser::BrowserEnv Env{browser::chromeProfile()};
  Process Proc;
  std::unique_ptr<fs::FileSystem> Fs;
  fs::KeyValueBackend *Kv = nullptr;
  storage::CachedKvStore *Cache = nullptr;
  TimedKv *StorageT = nullptr;
  TimedKv *SlowT = nullptr;
  std::unique_ptr<Suspender> Susp;

  Stack() { Env.indexedDB()->setQuotaBytes(IdbQuotaBytes); }

  /// (Re)mounts the file system over the tab's IndexedDB. Any previous
  /// mount must already be dropped.
  bool mount(bool Decorated, uint64_t PutDelayNs, bool DropSync) {
    std::unique_ptr<fs::AsyncKvStore> Slow =
        std::make_unique<fs::IndexedDbKv>(Env);
    SlowT = StorageT = nullptr;
    if (Decorated) {
      auto T = std::make_unique<TimedKv>(std::move(Slow), LayerSlowStore,
                                         LayerStorage, PutDelayNs);
      SlowT = T.get();
      Slow = std::move(T);
    }
    auto C = std::make_unique<storage::CachedKvStore>(Env, std::move(Slow));
    Cache = C.get();
    std::unique_ptr<fs::AsyncKvStore> Top = std::move(C);
    if (Decorated) {
      auto T = std::make_unique<TimedKv>(std::move(Top), LayerStorage,
                                         LayerFsOther, 0, DropSync);
      StorageT = T.get();
      Top = std::move(T);
    }
    auto K = std::make_unique<fs::KeyValueBackend>(Env, std::move(Top));
    Kv = K.get();
    bool Ok = false;
    K->initialize([&Ok](std::optional<ApiError> E) { Ok = !E; });
    Env.loop().run();
    Fs = std::make_unique<fs::FileSystem>(Env, Proc, std::move(K));
    Susp = std::make_unique<Suspender>(Env);
    return Ok;
  }

  /// Crashes the tab: discards every pending event unrun (undelivered
  /// IndexedDB transactions, the cache's flush timer, resumptions), then
  /// drops the mounted stack. What IndexedDB holds now is what survives.
  /// Returns the number of events discarded.
  uint64_t crash() {
    uint64_t Discarded = 0;
    while (Env.loop().kernel().next())
      ++Discarded;
    Susp.reset();
    Fs.reset();
    Kv = nullptr;
    Cache = nullptr;
    return Discarded;
  }
};

/// The trace's working set and its seeded contents.
struct WorkingSet {
  workloads::FsTrace Trace = workloads::makeJavacTrace();
  std::unordered_map<std::string, size_t> Index;
  std::map<std::string, size_t> DirEntries;

  WorkingSet() {
    for (size_t I = 0; I < Trace.Preexisting.size(); ++I) {
      const std::string &Path = Trace.Preexisting[I].first;
      Index[Path] = I;
      ++DirEntries[Path.substr(0, Path.rfind('/'))];
    }
  }
  size_t files() const { return Trace.Preexisting.size(); }
  uint32_t size(size_t I) const { return Trace.Preexisting[I].second; }
  const std::string &path(size_t I) const {
    return Trace.Preexisting[I].first;
  }
};

/// Writes every working-set file with its round-0 contents, then syncs.
bool seed(Stack &S, const WorkingSet &WS, uint64_t Seed) {
  std::vector<std::string> Dirs = {"/work/src", "/work/out"};
  for (const auto &[Dir, N] : WS.DirEntries)
    Dirs.push_back(Dir);
  bool Ok = true;
  auto Check = [&Ok](std::optional<ApiError> E) { Ok = Ok && !E; };
  for (const std::string &D : Dirs)
    S.Fs->mkdirp(D, Check);
  S.Env.loop().run();
  for (size_t I = 0; I < WS.files(); ++I)
    S.Fs->writeFile(WS.path(I), contentFor(Seed, I, 0, WS.size(I)), Check);
  S.Env.loop().run();
  S.Kv->sync(Check);
  S.Env.loop().run();
  return Ok;
}

/// Drives blocking guest calls one at a time: each call's completion
/// schedules the guest's resumption through the Suspender, and the
/// resumption issues the next call. An op is timed from issue to
/// resumption; the traced run also holds a root span over that interval.
class BlockingDriver {
public:
  using Complete = std::function<void(bool Failed)>;

  BlockingDriver(Stack &S) : S(S) {}
  virtual ~BlockingDriver() = default;

  /// Runs calls until next() returns false. Events still pending after
  /// the last resumption stay queued.
  void run() {
    Finished = !next();
    if (!Finished)
      begin();
    while (!Finished && S.Env.loop().runOne()) {
    }
  }

protected:
  /// Prepares the next call (untimed); false ends the run.
  virtual bool next() = 0;
  /// Issues the prepared call.
  virtual void issue(Complete Done) = 0;
  /// Records a finished call (untimed: verification happens here).
  virtual void finished(uint64_t Ns, bool Failed) = 0;

  Stack &S;

private:
  // The op's time encloses its root span, so the span bookkeeping counts
  // as tracing overhead.
  void begin() {
    StartNs = nowNs();
    Root = tracer().On ? tracer().begin("fs.op", LayerFsOther) : SIZE_MAX;
    issue([this](bool Failed) {
      LastFailed = Failed;
      S.Susp->scheduleResumption([this] { resumed(); });
    });
  }
  void resumed() {
    if (Root != SIZE_MAX)
      tracer().end(Root);
    finished(nowNs() - StartNs, LastFailed);
    if (next())
      begin();
    else
      Finished = true;
  }

  bool Finished = false;
  size_t Root = SIZE_MAX;
  uint64_t StartNs = 0;
  bool LastFailed = false;
};

/// Per-unit (trace pass or write round) accounting shared by both
/// workloads.
struct Units {
  double Ns[2] = {0, 0};
  double Count[2] = {0, 0};
  storage::CacheStats CacheDelta;
  TimedKv::Counts StorageDelta, SlowDelta;
  uint64_t GuestWrites = 0, GuestWriteBytes = 0, GuestReadBytes = 0;
  uint64_t FirstUnitVirtualNs = 0;
};

void addCounts(TimedKv::Counts &Acc, const TimedKv::Counts &Now,
               const TimedKv::Counts &Then) {
  Acc.PutBytes += Now.PutBytes - Then.PutBytes;
  Acc.IndexPuts += Now.IndexPuts - Then.IndexPuts;
  Acc.GetBytes += Now.GetBytes - Then.GetBytes;
}

void addCache(storage::CacheStats &Acc, const storage::CacheStats &Now,
              const storage::CacheStats &Then) {
  Acc.Hits += Now.Hits - Then.Hits;
  Acc.Misses += Now.Misses - Then.Misses;
  Acc.Evictions += Now.Evictions - Then.Evictions;
  Acc.DedupHits += Now.DedupHits - Then.DedupHits;
  Acc.Flushes += Now.Flushes - Then.Flushes;
  Acc.JournalCommits += Now.JournalCommits - Then.JournalCommits;
  Acc.Checkpoints += Now.Checkpoints - Then.Checkpoints;
  Acc.GcBlocks += Now.GcBlocks - Then.GcBlocks;
}

/// Snapshot taken at a unit boundary; traced units add their deltas.
struct UnitMark {
  storage::CacheStats Cache;
  TimedKv::Counts Storage, Slow;
  void take(const Stack &S) {
    Cache = S.Cache->stats();
    if (S.StorageT)
      Storage = S.StorageT->counts();
    if (S.SlowT)
      Slow = S.SlowT->counts();
  }
  void addTo(Units &U, const Stack &S) const {
    addCache(U.CacheDelta, S.Cache->stats(), Cache);
    if (S.StorageT)
      addCounts(U.StorageDelta, S.StorageT->counts(), Storage);
    if (S.SlowT)
      addCounts(U.SlowDelta, S.SlowT->counts(), Slow);
  }
};

struct Counters {
  uint64_t Events = 0, Resumptions = 0;
  void take(Stack &S) {
    Events = S.Env.metrics().counter("loop.events_run").value();
    Resumptions = S.Susp->resumptionCount();
  }
};

uint64_t retainedSamples(Stack &S) {
  uint64_t N = 0;
  S.Env.metrics().forEachHistogram(
      [&N](const std::string &, const obs::Histogram &H) {
        N += H.samples().size();
      });
  return N;
}

/// Per-layer metrics common to both fs workloads (traced runs only).
void reportLayers(Result &R, Stack &S, const Units &U, uint64_t Ops,
                  const Counters &Before, const char *UnitName) {
  double Traced = std::max(U.Count[1], 1.0);
  auto PerUnitMs = [&](int L) {
    return static_cast<double>(tracer().selfNs(L)) / 1e6 / Traced;
  };
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0; };
  R.metric("storage.self_ms", PerUnitMs(LayerStorage), "ms");
  R.metric("backends.slow_store_ms", PerUnitMs(LayerSlowStore), "ms");
  R.metric("fs.other_self_ms", PerUnitMs(LayerFsOther), "ms");
  R.metric("storage.put_bytes_per_byte",
           Ratio(static_cast<double>(U.StorageDelta.PutBytes),
                 static_cast<double>(U.GuestWriteBytes)),
           "ratio");
  R.metric("backends.slow_put_bytes_per_byte",
           Ratio(static_cast<double>(U.SlowDelta.PutBytes),
                 static_cast<double>(U.GuestWriteBytes)),
           "ratio");
  R.metric("backends.index_puts_per_write",
           Ratio(static_cast<double>(U.StorageDelta.IndexPuts),
                 static_cast<double>(U.GuestWrites)),
           "ratio");
  R.metric("storage.get_bytes_per_read_byte",
           Ratio(static_cast<double>(U.StorageDelta.GetBytes),
                 static_cast<double>(U.GuestReadBytes)),
           "ratio");
  const storage::CacheStats &C = U.CacheDelta;
  R.metric("storage.hit_ratio", C.hitRatio(), "ratio");
  R.metric("storage.evictions", static_cast<double>(C.Evictions) / Traced,
           "count");
  R.metric("storage.flushes", static_cast<double>(C.Flushes) / Traced,
           "count");
  R.metric("storage.journal_commits",
           static_cast<double>(C.JournalCommits) / Traced, "count");
  R.metric("storage.checkpoints", static_cast<double>(C.Checkpoints) / Traced,
           "count");
  R.metric("storage.gc_blocks", static_cast<double>(C.GcBlocks) / Traced,
           "count");
  R.metric("storage.dedup_hits", static_cast<double>(C.DedupHits) / Traced,
           "count");
  Counters After;
  After.take(S);
  double DOps = static_cast<double>(std::max<uint64_t>(Ops, 1));
  R.metric("kernel.events_per_op",
           static_cast<double>(After.Events - Before.Events) / DOps, "count");
  R.metric("suspend.resumptions_per_op",
           static_cast<double>(After.Resumptions - Before.Resumptions) / DOps,
           "count");
  R.metric("obs.retained_samples", static_cast<double>(retainedSamples(S)),
           "count");
  R.metric("browser.virtual_ms",
           static_cast<double>(U.FirstUnitVirtualNs) / 1e6, "count");
  reportTraceOverhead(R, U.Ns, U.Count, UnitName);
}

//===----------------------------------------------------------------------===//
// fs-read
//===----------------------------------------------------------------------===//

class ReadDriver : public BlockingDriver {
public:
  ReadDriver(Stack &S, const WorkingSet &WS,
             const std::vector<std::vector<uint8_t>> &Want, uint64_t Seed,
             uint64_t RssAtOps = UINT64_MAX)
      : BlockingDriver(S), Log(RssAtOps), WS(WS), Want(Want), Seed(Seed) {}

  /// Replays whole passes until \p BudgetNs of op time is spent (one pass
  /// when zero). Traced runs trace every other pass.
  ///
  /// Each pass is one javac run, and the event loop drains between passes
  /// (as fig6's replayTrace does), so the cache's background flush gets
  /// its turn. Chained back to back with no idle point, passes starve the
  /// Background lane: the flush never runs, the cache's projected quota
  /// grows with every overwrite, and after ~1000 passes puts fail with
  /// ENOSPC.
  void replay(uint64_t BudgetNs, bool AlternateTrace) {
    Alternate = AlternateTrace;
    do {
      run();
      S.Env.loop().run();
    } while (Log.BusyNs < BudgetNs || (Alternate && U.Count[1] == 0));
  }

  OpLog Log;
  Units U;
  std::vector<double> KindNs[4];
  uint64_t Passes = 0;
  std::string FirstFailure;

private:
  static int kindSlot(FsTraceOp::Kind K) {
    switch (K) {
    case FsTraceOp::Kind::Read:
      return 0;
    case FsTraceOp::Kind::Stat:
      return 1;
    case FsTraceOp::Kind::Readdir:
      return 2;
    default:
      return 3;
    }
  }

  bool next() override {
    const auto &Ops = WS.Trace.Ops;
    if (Pos == Ops.size()) {
      endPass();
      Pos = 0;
      return false;
    }
    if (Pos == 0)
      beginPass();
    Cur = &Ops[Pos++];
    if (Cur->K == FsTraceOp::Kind::Write)
      Pending = contentFor(Seed, 100000 + Pos, Passes + 1, Cur->SizeBytes);
    return true;
  }

  void beginPass() {
    PassTraced = Alternate && Passes % 2 == 1;
    tracer().On = PassTraced;
    PassNs = 0;
    PassVirtualStart = S.Env.clock().nowNs();
    Mark.take(S);
  }

  void endPass() {
    U.Ns[PassTraced] += PassNs;
    ++U.Count[PassTraced];
    if (Passes == 0)
      U.FirstUnitVirtualNs = S.Env.clock().nowNs() - PassVirtualStart;
    if (PassTraced)
      Mark.addTo(U, S);
    ++Passes;
    if (Passes % PassesPerBlock == 0)
      Log.endBlock();
    tracer().On = false;
  }

  void issue(Complete Done) override {
    const std::string &P = Cur->Path;
    switch (Cur->K) {
    case FsTraceOp::Kind::Read:
      S.Fs->readFile(P, [this, Done](ErrorOr<std::vector<uint8_t>> R) {
        Got = R.ok() ? std::move(*R) : std::vector<uint8_t>();
        Error = R.ok() ? "" : R.error().message();
        Done(!R.ok());
      });
      return;
    case FsTraceOp::Kind::Stat:
      S.Fs->stat(P, [this, Done](ErrorOr<fs::Stats> R) {
        GotSize = R.ok() ? R->SizeBytes : UINT64_MAX;
        Error = R.ok() ? "" : R.error().message();
        Done(!R.ok());
      });
      return;
    case FsTraceOp::Kind::Readdir:
      S.Fs->readdir(P, [this, Done](ErrorOr<std::vector<std::string>> R) {
        GotSize = R.ok() ? R->size() : UINT64_MAX;
        Error = R.ok() ? "" : R.error().message();
        Done(!R.ok());
      });
      return;
    case FsTraceOp::Kind::Write:
      S.Fs->writeFile(P, std::move(Pending),
                      [this, Done](std::optional<ApiError> E) {
                        Error = E ? E->message() : "";
                        Done(E.has_value());
                      });
      return;
    default:
      Done(true);
      return;
    }
  }

  void finished(uint64_t Ns, bool Failed) override {
    const std::string &P = Cur->Path;
    bool Ok = !Failed;
    if (Ok && Cur->K == FsTraceOp::Kind::Read) {
      auto It = WS.Index.find(P);
      Ok = It != WS.Index.end() && Got == Want[It->second];
      if (PassTraced)
        U.GuestReadBytes += Got.size();
    } else if (Ok && Cur->K == FsTraceOp::Kind::Stat) {
      auto It = WS.Index.find(P);
      Ok = It != WS.Index.end() && GotSize == WS.size(It->second);
    } else if (Ok && Cur->K == FsTraceOp::Kind::Readdir) {
      auto It = WS.DirEntries.find(P);
      Ok = It != WS.DirEntries.end() && GotSize == It->second;
    } else if (Ok && Cur->K == FsTraceOp::Kind::Write && PassTraced) {
      ++U.GuestWrites;
      U.GuestWriteBytes += Cur->SizeBytes;
    }
    if (!Ok && FirstFailure.empty())
      FirstFailure = P + ": " + (Failed ? Error : "wrong output");
    Log.op(Ns, Ok);
    Log.busy(Ns);
    PassNs += Ns;
    if (!PassTraced)
      KindNs[kindSlot(Cur->K)].push_back(static_cast<double>(Ns));
  }

  const WorkingSet &WS;
  const std::vector<std::vector<uint8_t>> &Want;
  uint64_t Seed;
  bool Alternate = false;
  size_t Pos = 0;
  const FsTraceOp *Cur = nullptr;
  std::vector<uint8_t> Pending, Got;
  uint64_t GotSize = 0;
  std::string Error;
  bool PassTraced = false;
  uint64_t PassNs = 0, PassVirtualStart = 0;
  UnitMark Mark;
};

//===----------------------------------------------------------------------===//
// fs-write
//===----------------------------------------------------------------------===//

class WriteDriver : public BlockingDriver {
public:
  WriteDriver(Stack &S, const WorkingSet &WS, uint64_t Seed,
              uint64_t RssAtOps)
      : BlockingDriver(S), Log(RssAtOps), WS(WS), Seed(Seed) {}

  /// Runs whole rounds (every file, then sync) until \p BudgetNs of op
  /// and sync time is spent. Returns at the last sync's resumption, with
  /// any later events still pending.
  void rounds(uint64_t BudgetNs, bool AlternateTrace) {
    Budget = BudgetNs;
    Alternate = AlternateTrace;
    run();
    tracer().On = false;
  }

  OpLog Log;
  Units U;
  std::vector<double> SyncNs, WriteNs;
  /// Rounds completed; round r (1-based) wrote contentFor(.., r, ..).
  uint64_t Rounds = 0;
  bool SyncFailed = false;
  std::string FirstFailure;

private:
  bool next() override {
    if (File == 0 && !InSync) {
      if (Log.BusyNs >= Budget && Rounds > 0 &&
          (!Alternate || U.Count[1] > 0))
        return false;
      RoundTraced = Alternate && Rounds % 2 == 1;
      tracer().On = RoundTraced;
      RoundNs = 0;
      RoundVirtualStart = S.Env.clock().nowNs();
      Mark.take(S);
    }
    if (File < WS.files()) {
      Pending = contentFor(Seed, File, Rounds + 1, WS.size(File));
      return true;
    }
    InSync = true;
    return true;
  }

  void issue(Complete Done) override {
    if (InSync) {
      S.Kv->sync([this, Done](std::optional<ApiError> E) {
        if (E && FirstFailure.empty())
          FirstFailure = "sync: " + E->message();
        Done(E.has_value());
      });
      return;
    }
    S.Fs->writeFile(WS.path(File), std::move(Pending),
                    [this, Done](std::optional<ApiError> E) {
                      if (E && FirstFailure.empty())
                        FirstFailure = WS.path(File) + ": " + E->message();
                      Done(E.has_value());
                    });
  }

  void finished(uint64_t Ns, bool Failed) override {
    Log.busy(Ns);
    RoundNs += Ns;
    if (InSync) {
      SyncFailed = SyncFailed || Failed;
      if (!RoundTraced)
        SyncNs.push_back(static_cast<double>(Ns));
      U.Ns[RoundTraced] += RoundNs;
      ++U.Count[RoundTraced];
      if (Rounds == 0)
        U.FirstUnitVirtualNs = S.Env.clock().nowNs() - RoundVirtualStart;
      if (RoundTraced)
        Mark.addTo(U, S);
      tracer().On = false;
      ++Rounds;
      if (Rounds % RoundsPerBlock == 0)
        Log.endBlock();
      File = 0;
      InSync = false;
      return;
    }
    Log.op(Ns, !Failed);
    if (!RoundTraced)
      WriteNs.push_back(static_cast<double>(Ns));
    if (RoundTraced && !Failed) {
      ++U.GuestWrites;
      U.GuestWriteBytes += WS.size(File);
    }
    ++File;
  }

  const WorkingSet &WS;
  uint64_t Seed;
  uint64_t Budget = 0;
  bool Alternate = false;
  size_t File = 0;
  bool InSync = false;
  std::vector<uint8_t> Pending;
  bool RoundTraced = false;
  uint64_t RoundNs = 0, RoundVirtualStart = 0;
  UnitMark Mark;
};

/// Crashes the tab right after the last sync's acknowledgement, remounts a
/// fresh stack over the same IndexedDB and compares every file with round
/// \p Round's contents (with \p Corrupt, file 0's reference has one byte
/// flipped). Returns the number of mismatches.
uint64_t checkDurable(Stack &S, const WorkingSet &WS, uint64_t Seed,
                      uint64_t Round, bool Corrupt, Result &R) {
  R.detail("durability_discarded_events", static_cast<double>(S.crash()));
  if (!S.mount(false, 0, false))
    return WS.files();
  uint64_t Bad = 0;
  for (size_t I = 0; I < WS.files(); ++I)
    S.Fs->readFile(WS.path(I), [&, I](ErrorOr<std::vector<uint8_t>> R) {
      std::vector<uint8_t> Want = contentFor(Seed, I, Round, WS.size(I));
      if (Corrupt && I == 0)
        Want[0] ^= 1;
      Bad += !R.ok() || *R != Want;
    });
  S.Env.loop().run();
  return Bad;
}

double medianUs(const std::vector<double> &Ns) { return median(Ns) / 1e3; }

} // namespace

int runFsRead(const Options &Opts, Result &R) {
  WorkingSet WS;
  std::vector<std::vector<uint8_t>> Want;
  std::unique_ptr<Stack> S;
  bool SetupOk = true;
  bool Decorated = Opts.Trace || Opts.SlowPutDelayUs;
  timedSetups(R, [&] { S.reset(); }, [&] {
    S = std::make_unique<Stack>();
    Want.clear();
    for (size_t I = 0; I < WS.files(); ++I)
      Want.push_back(contentFor(Opts.Seed, I, 0, WS.size(I)));
    SetupOk = S->mount(Decorated, Opts.SlowPutDelayUs * 1000, false) &&
              seed(*S, WS, Opts.Seed);
    // One verified warm pass.
    ReadDriver Warm(*S, WS, Want, Opts.Seed);
    Warm.replay(0, false);
    SetupOk = SetupOk && Warm.Log.Failed == 0;
  });
  R.Correct = SetupOk;
  if (Opts.CorruptReference)
    Want[0][0] ^= 1;

  ReadDriver D(*S, WS, Want, Opts.Seed, RssAtReadOps);
  Counters Before;
  Before.take(*S);
  tracer().resetTotals();
  D.replay(static_cast<uint64_t>(Opts.Seconds * 1e9), Opts.Trace);
  R.Correct = R.Correct && D.Log.Failed == 0;
  R.detail("passes", static_cast<double>(D.Passes));
  if (!D.FirstFailure.empty())
    R.detail("first_failure", D.FirstFailure);

  if (!Opts.Trace) {
    reportOps(R, D.Log, 99.9);
    return 0;
  }
  R.Attempted += D.Log.Attempted;
  R.Failed += D.Log.Failed;
  R.metric("fs.read_us", medianUs(D.KindNs[0]), "us");
  R.metric("fs.stat_us", medianUs(D.KindNs[1]), "us");
  R.metric("fs.readdir_us", medianUs(D.KindNs[2]), "us");
  R.metric("fs.write_us", medianUs(D.KindNs[3]), "us");
  reportLayers(R, *S, D.U, D.Log.Attempted, Before, "ms per pass");
  return 0;
}

int runFsWrite(const Options &Opts, Result &R) {
  WorkingSet WS;
  std::unique_ptr<Stack> S;
  bool SetupOk = true;
  bool Decorated = Opts.Trace || Opts.SlowPutDelayUs || Opts.DropSync;
  timedSetups(R, [&] { S.reset(); }, [&] {
    S = std::make_unique<Stack>();
    SetupOk =
        S->mount(Decorated, Opts.SlowPutDelayUs * 1000, Opts.DropSync) &&
        seed(*S, WS, Opts.Seed);
  });

  WriteDriver D(*S, WS, Opts.Seed, RssAtWriteRounds * WS.files());
  Counters Before;
  Before.take(*S);
  tracer().resetTotals();
  D.rounds(static_cast<uint64_t>(Opts.Seconds * 1e9), Opts.Trace);
  R.detail("rounds", static_cast<double>(D.Rounds));

  // Per-layer figures must be read before the durability check crashes
  // the measured stack.
  if (Opts.Trace) {
    R.metric("fs.write_us", medianUs(D.WriteNs), "us");
    R.metric("fs.sync_ms", median(D.SyncNs) / 1e6, "ms");
    reportLayers(R, *S, D.U, D.Log.Attempted, Before, "ms per round");
  }

  uint64_t Bad =
      checkDurable(*S, WS, Opts.Seed, D.Rounds, Opts.CorruptReference, R);
  R.detail("durability_mismatches", static_cast<double>(Bad));
  if (!D.FirstFailure.empty())
    R.detail("first_failure", D.FirstFailure);
  D.Log.lateFailures(std::min(Bad, D.Log.Attempted - D.Log.Failed));
  R.Correct = SetupOk && !D.SyncFailed && D.Log.Failed == 0;

  if (!Opts.Trace) {
    // A run has ~60,000 writes, so only ~60 lie beyond p99.9: about as
    // many as the writes that a host scheduling stall (1-10 ms, a few per
    // second on a shared VM) lands in. p99 (~600 beyond) measures the
    // program instead.
    reportOps(R, D.Log, 99);
    return 0;
  }
  R.Attempted += D.Log.Attempted;
  R.Failed += D.Log.Failed;
  return 0;
}

} // namespace perfbench
