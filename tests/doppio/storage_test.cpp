//===- tests/doppio/storage_test.cpp --------------------------------------==//
//
// Storage hierarchy tests (DESIGN.md §19): the content-addressed block
// vocabulary, the log-structured journal's codec and recovery, the
// write-back cached store's semantics (write-back acks, group commit,
// LRU + quota-pressure eviction, sequential prefetch, dedup), uniform
// ENOSPC surfacing at the fs layer, and the deterministic power-cut fuzz
// sweep: the journal is cut at *every* byte offset and the recovered tree
// must equal the state after some prefix of the committed groups.
//
//===----------------------------------------------------------------------===//

#include "doppio/storage/cached_store.h"

#include "doppio/backends/kv_backend.h"
#include "doppio/backends/kv_store.h"
#include "doppio/fs.h"
#include "doppio/process.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <vector>

using namespace doppio;
using namespace doppio::rt;
using namespace doppio::rt::storage;
using namespace doppio::browser;

namespace {

using Bytes = fs::AsyncKvStore::Bytes;

Bytes bytesOf(const std::string &S) { return Bytes(S.begin(), S.end()); }

std::string textOf(const Bytes &B) { return std::string(B.begin(), B.end()); }

/// A value of \p N pseudo-random bytes derived from \p Seed. No 16 KB
/// block repeats within one value or across values of different seeds,
/// so content-addressed blocks dedup only where a test repeats a value.
/// (Any byte pattern linear in the offset makes every block a shifted
/// copy of one block: at most 256 distinct blocks in all.)
Bytes blob(size_t N, uint8_t Seed) {
  std::mt19937 Gen(Seed);
  Bytes B(N);
  for (uint8_t &Byte : B)
    Byte = static_cast<uint8_t>(Gen());
  return B;
}

/// Drains every event reachable within a one-second horizon: enough for
/// the slow stores' (chained) round trips, but never far enough to fire
/// quiescentConfig()'s 60 s background flush timer — tests control group
/// boundaries explicitly via sync(). Env.loop().run() would run the timer
/// heap dry, flushing after every drain.
void drain(BrowserEnv &Env) {
  Env.loop().runReadyUntil(Env.clock().nowNs() + browser::msToNs(1000));
}

/// Issues a put and drains the loop; returns the completion error.
std::optional<ApiError> putKv(BrowserEnv &Env, fs::AsyncKvStore &S,
                              const std::string &K, const Bytes &V) {
  std::optional<ApiError> Out;
  bool Called = false;
  S.put(K, V, [&](std::optional<ApiError> E) {
    Out = E;
    Called = true;
  });
  drain(Env);
  EXPECT_TRUE(Called);
  return Out;
}

/// Issues a get and drains the loop; FAILs on an error result.
std::optional<Bytes> getKv(BrowserEnv &Env, fs::AsyncKvStore &S,
                           const std::string &K) {
  std::optional<Bytes> Out;
  bool Called = false;
  S.get(K, [&](ErrorOr<std::optional<Bytes>> R) {
    ASSERT_TRUE(R.ok()) << R.error().message();
    Out = *R;
    Called = true;
  });
  drain(Env);
  EXPECT_TRUE(Called);
  return Out;
}

std::optional<ApiError> syncKv(BrowserEnv &Env, fs::AsyncKvStore &S) {
  std::optional<ApiError> Out;
  bool Called = false;
  S.sync([&](std::optional<ApiError> E) {
    Out = E;
    Called = true;
  });
  drain(Env);
  EXPECT_TRUE(Called);
  return Out;
}

/// Cache config with the background machinery effectively disabled, so
/// tests control group boundaries via sync().
CacheConfig quiescentConfig() {
  CacheConfig C;
  C.BlockBytes = 16 * 1024;
  C.CapacityBytes = 64ull << 20;
  C.DirtyHighWaterBytes = 32ull << 20;
  C.FlushIntervalNs = browser::msToNs(60000);
  C.CheckpointJournalBytes = 64 << 20;
  C.PrefetchDepth = 0;
  return C;
}

//===----------------------------------------------------------------------===//
// Block / Directory unit tests
//===----------------------------------------------------------------------===//

TEST(StorageBlock, ManifestSplitsAndAddresses) {
  Bytes V = blob(40 * 1024, 7);
  Manifest M = makeManifest(V, 16 * 1024);
  ASSERT_EQ(M.Blocks.size(), 3u);
  EXPECT_EQ(M.SizeBytes, V.size());
  EXPECT_EQ(M.Blocks[0].Size, 16u * 1024);
  EXPECT_EQ(M.Blocks[2].Size, 8u * 1024);
  // Content addressing: identical payloads hash identically, and the
  // reassembled payloads equal the original.
  Manifest M2 = makeManifest(V, 16 * 1024);
  EXPECT_TRUE(M == M2);
  Bytes Joined;
  for (size_t I = 0; I != M.Blocks.size(); ++I) {
    Bytes P = blockPayload(V, 16 * 1024, I);
    EXPECT_EQ(hashBlock(P.data(), P.size()), M.Blocks[I].Hash);
    Joined.insert(Joined.end(), P.begin(), P.end());
  }
  EXPECT_EQ(Joined, V);
}

TEST(StorageBlock, BlockKeyEncodesHashAndSize) {
  BlockId Id{0xdeadbeefcafef00dull, 4096};
  EXPECT_EQ(blockKey(Id), "b:deadbeefcafef00d.4096");
}

TEST(StorageBlock, DirectoryRoundTripAndCorruptReject) {
  Directory D;
  D.put("alpha", makeManifest(blob(100, 1), 64));
  D.put("beta", makeManifest(blob(5000, 2), 64));
  D.remove("missing");
  Bytes Wire = D.serialize();

  bool Ok = false;
  Directory R = Directory::deserialize(Wire, Ok);
  ASSERT_TRUE(Ok);
  ASSERT_EQ(R.size(), 2u);
  ASSERT_NE(R.lookup("alpha"), nullptr);
  EXPECT_TRUE(*R.lookup("alpha") == *D.lookup("alpha"));

  Wire.pop_back(); // Truncated snapshots must be rejected, not half-read.
  Directory Bad = Directory::deserialize(Wire, Ok);
  EXPECT_FALSE(Ok);
  EXPECT_EQ(Bad.size(), 0u);
}

TEST(StorageBlock, DirectoryNeighbourQueries) {
  Directory D;
  for (const char *K : {"a", "b", "d"})
    D.put(K, Manifest());
  EXPECT_EQ(D.nextKey("a"), "b");
  EXPECT_EQ(D.nextKey("b"), "d");
  EXPECT_EQ(D.nextKey("d"), "");
  EXPECT_TRUE(D.adjacent("a", "b"));
  EXPECT_FALSE(D.adjacent("b", "a"));
  EXPECT_FALSE(D.adjacent("b", "c"));
  EXPECT_TRUE(D.adjacent("b", "d"));
}

//===----------------------------------------------------------------------===//
// Journal unit tests
//===----------------------------------------------------------------------===//

TEST(StorageJournal, SealRecoverRoundTrip) {
  Journal J;
  J.stagePut("k1", makeManifest(blob(100, 1), 64));
  J.stageDel("k2");
  Bytes Image = J.sealGroup();
  J.stagePut("k3", makeManifest(blob(10, 3), 64));
  Image = J.sealGroup();

  Journal R;
  Directory D;
  D.put("k2", Manifest());
  Journal::Recovery Rec = R.recover(Image, D);
  EXPECT_TRUE(Rec.HeaderOk);
  EXPECT_EQ(Rec.Commits, 2u);
  EXPECT_EQ(Rec.RecordsApplied, 3u);
  EXPECT_EQ(Rec.TornTailBytes, 0u);
  EXPECT_NE(D.lookup("k1"), nullptr);
  EXPECT_EQ(D.lookup("k2"), nullptr);
  EXPECT_NE(D.lookup("k3"), nullptr);
}

TEST(StorageJournal, EmptyAndCorruptImages) {
  Journal J;
  Directory D;
  Journal::Recovery Rec = J.recover(Bytes(), D);
  EXPECT_TRUE(Rec.HeaderOk); // Never journaled: a valid empty log.
  EXPECT_EQ(Rec.Commits, 0u);

  Bytes Garbage = bytesOf("not a journal at all");
  Rec = J.recover(Garbage, D);
  EXPECT_FALSE(Rec.HeaderOk);
  EXPECT_EQ(Rec.TornTailBytes, Garbage.size());
  EXPECT_EQ(D.size(), 0u);
}

TEST(StorageJournal, BitFlipInvalidatesOnlyTheTail) {
  Journal J;
  J.stagePut("stable", makeManifest(blob(50, 1), 64));
  J.sealGroup();
  size_t GoodEnd = J.bytes().size();
  J.stagePut("flipped", makeManifest(blob(50, 2), 64));
  Bytes Image = J.sealGroup();

  Image[GoodEnd + 3] ^= 0x40; // Corrupt the second group's first record.
  Journal R;
  Directory D;
  Journal::Recovery Rec = R.recover(Image, D);
  EXPECT_TRUE(Rec.HeaderOk);
  EXPECT_EQ(Rec.Commits, 1u);
  EXPECT_NE(D.lookup("stable"), nullptr);
  EXPECT_EQ(D.lookup("flipped"), nullptr);
  EXPECT_EQ(Rec.TornTailBytes, Image.size() - GoodEnd);
}

//===----------------------------------------------------------------------===//
// Cached store semantics
//===----------------------------------------------------------------------===//

TEST(CachedStore, WriteBackAcksBeforeSlowStore) {
  BrowserEnv Env(chromeProfile());
  auto Slow = std::make_unique<fs::CloudKv>(Env);
  fs::CloudKv *Cloud = Slow.get();
  CachedKvStore Store(Env, std::move(Slow), quiescentConfig());
  drain(Env); // Recovery.
  ASSERT_TRUE(Store.ready());

  bool Acked = false;
  Store.put("k", bytesOf("payload"),
            [&](std::optional<ApiError> E) {
              EXPECT_FALSE(E.has_value());
              Acked = true;
            });
  // Write-back: the ack does not wait for the WAN round trip.
  EXPECT_TRUE(Acked);
  EXPECT_EQ(Cloud->objectCount(), 0u);
  EXPECT_EQ(Store.stats().Flushes, 0u);

  auto V = getKv(Env, Store, "k"); // Served from cache, still unflushed.
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(textOf(*V), "payload");
  EXPECT_GE(Store.stats().Hits, 1u);

  EXPECT_FALSE(syncKv(Env, Store).has_value());
  EXPECT_GE(Store.stats().Flushes, 1u);
  EXPECT_GE(Cloud->objectCount(), 2u); // Block + journal.
}

TEST(CachedStore, BackgroundFlushTimerSealsOneGroup) {
  BrowserEnv Env(chromeProfile());
  CacheConfig C = quiescentConfig();
  C.FlushIntervalNs = browser::msToNs(8);
  CachedKvStore Store(Env, std::make_unique<fs::CloudKv>(Env), C);
  drain(Env);

  for (int I = 0; I != 10; ++I)
    Store.put("k" + std::to_string(I), blob(100, static_cast<uint8_t>(I)),
              [](std::optional<ApiError>) {});
  EXPECT_EQ(Store.stats().Flushes, 0u);
  drain(Env); // The kernel Background-lane timer fires the flush.
  CacheStats S = Store.stats();
  EXPECT_GE(S.Flushes, 1u);
  // Group commit: ten acked puts rode one sealed group.
  EXPECT_EQ(S.JournalCommits, 1u);
}

TEST(CachedStore, DeleteTombstonesAndPersists) {
  BrowserEnv Env(chromeProfile());
  CachedKvStore Store(Env, std::make_unique<fs::CloudKv>(Env),
                      quiescentConfig());
  drain(Env);
  ASSERT_FALSE(putKv(Env, Store, "gone", bytesOf("x")).has_value());
  ASSERT_FALSE(syncKv(Env, Store).has_value());

  bool Acked = false;
  Store.del("gone", [&](std::optional<ApiError> E) {
    EXPECT_FALSE(E.has_value());
    Acked = true;
  });
  EXPECT_TRUE(Acked);
  EXPECT_FALSE(getKv(Env, Store, "gone").has_value()); // Tombstone hit.
  EXPECT_FALSE(syncKv(Env, Store).has_value());
  EXPECT_FALSE(getKv(Env, Store, "gone").has_value());
}

TEST(CachedStore, DedupSharesIdenticalBlocks) {
  BrowserEnv Env(chromeProfile());
  CachedKvStore Store(Env, std::make_unique<fs::CloudKv>(Env),
                      quiescentConfig());
  drain(Env);
  Bytes Same = blob(16 * 1024, 9);
  ASSERT_FALSE(putKv(Env, Store, "first", Same).has_value());
  ASSERT_FALSE(putKv(Env, Store, "second", Same).has_value());
  CacheStats S = Store.stats();
  EXPECT_GE(S.DedupHits, 1u);
  EXPECT_EQ(S.CachedBytes, Same.size()); // One pooled block, two refs.
  ASSERT_FALSE(syncKv(Env, Store).has_value());
  // One block payload reached the slow store.
  EXPECT_EQ(Store.stats().FlushedBlocks, 1u);
}

TEST(CachedStore, LruEvictsCleanEntriesOnly) {
  BrowserEnv Env(chromeProfile());
  CacheConfig C = quiescentConfig();
  C.CapacityBytes = 64 * 1024; // Four 16 KB blocks.
  CachedKvStore Store(Env, std::make_unique<fs::CloudKv>(Env), C);
  drain(Env);

  for (int I = 0; I != 8; ++I)
    ASSERT_FALSE(putKv(Env, Store, "k" + std::to_string(I),
                       blob(16 * 1024, static_cast<uint8_t>(I)))
                     .has_value());
  // All dirty: pinned, nothing evictable yet (a backpressure flush was
  // kicked instead).
  ASSERT_FALSE(syncKv(Env, Store).has_value());
  CacheStats S = Store.stats();
  EXPECT_GE(S.Evictions, 4u);
  EXPECT_LE(S.CachedBytes, C.CapacityBytes);

  // Evicted entries refill from the slow store with correct contents.
  auto V = getKv(Env, Store, "k0");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(*V, blob(16 * 1024, 0));
  EXPECT_GE(Store.stats().Fills, 1u);
}

TEST(CachedStore, SequentialMissRunsTriggerPrefetch) {
  BrowserEnv Env(chromeProfile());
  ASSERT_NE(Env.indexedDB(), nullptr);
  {
    CachedKvStore Writer(Env, std::make_unique<fs::IndexedDbKv>(Env),
                         quiescentConfig());
    drain(Env);
    for (int I = 0; I != 16; ++I) {
      char Key[8];
      snprintf(Key, sizeof(Key), "k%02d", I);
      ASSERT_FALSE(
          putKv(Env, Writer, Key, blob(2048, static_cast<uint8_t>(I)))
              .has_value());
    }
    ASSERT_FALSE(syncKv(Env, Writer).has_value());
  }

  CacheConfig C = quiescentConfig();
  C.PrefetchDepth = 8;
  CachedKvStore Reader(Env, std::make_unique<fs::IndexedDbKv>(Env), C);
  drain(Env);
  ASSERT_TRUE(Reader.ready());

  ASSERT_TRUE(getKv(Env, Reader, "k00").has_value()); // Cold miss.
  ASSERT_TRUE(getKv(Env, Reader, "k01").has_value()); // Sequential miss.
  CacheStats S = Reader.stats();
  EXPECT_GE(S.PrefetchIssued, 1u);

  auto V = getKv(Env, Reader, "k02"); // Served by the prefetcher.
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(*V, blob(2048, 2));
  S = Reader.stats();
  EXPECT_GE(S.PrefetchHits, 1u);
  EXPECT_EQ(S.Misses, 2u);
}

TEST(CachedStore, ReloadRecoversFromJournalReplay) {
  BrowserEnv Env(chromeProfile());
  {
    CachedKvStore Writer(Env, std::make_unique<fs::IndexedDbKv>(Env),
                         quiescentConfig());
    drain(Env);
    ASSERT_FALSE(putKv(Env, Writer, "a", bytesOf("alpha")).has_value());
    ASSERT_FALSE(putKv(Env, Writer, "b", bytesOf("beta")).has_value());
    ASSERT_FALSE(syncKv(Env, Writer).has_value());
    ASSERT_FALSE(putKv(Env, Writer, "b", bytesOf("beta2")).has_value());
    Writer.del("a", [](std::optional<ApiError>) {});
    ASSERT_FALSE(syncKv(Env, Writer).has_value());
  }
  CachedKvStore Reader(Env, std::make_unique<fs::IndexedDbKv>(Env),
                       quiescentConfig());
  drain(Env);
  ASSERT_TRUE(Reader.ready());
  CacheStats S = Reader.stats();
  EXPECT_EQ(S.ReplayedCommits, 2u);
  EXPECT_GE(S.ReplayedRecords, 4u);
  EXPECT_FALSE(getKv(Env, Reader, "a").has_value());
  auto V = getKv(Env, Reader, "b");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(textOf(*V), "beta2");
}

TEST(CachedStore, CheckpointTruncatesJournalAndCollectsGarbage) {
  BrowserEnv Env(chromeProfile());
  CacheConfig C = quiescentConfig();
  C.CheckpointJournalBytes = 64; // Checkpoint after nearly every flush.
  CachedKvStore Store(Env, std::make_unique<fs::IndexedDbKv>(Env), C);
  drain(Env);

  for (int Round = 0; Round != 4; ++Round) {
    // Same key, fresh content: the previous round's blocks become dead.
    ASSERT_FALSE(
        putKv(Env, Store, "hot", blob(32 * 1024, static_cast<uint8_t>(Round)))
            .has_value());
    ASSERT_FALSE(syncKv(Env, Store).has_value());
  }
  CacheStats S = Store.stats();
  EXPECT_GE(S.Checkpoints, 3u);
  EXPECT_GE(S.GcBlocks, 4u);
  EXPECT_LE(S.JournalDepthBytes, 256u);

  // Reload sees the checkpointed directory, not a journal replay.
  CachedKvStore Reader(Env, std::make_unique<fs::IndexedDbKv>(Env), C);
  drain(Env);
  auto V = getKv(Env, Reader, "hot");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(*V, blob(32 * 1024, 3));
}

//===----------------------------------------------------------------------===//
// Quota: uniform ENOSPC and quota-pressure eviction
//===----------------------------------------------------------------------===//

/// Writes files through the fs frontend until the backend reports an
/// error; returns it.
std::optional<ApiError> fillUntilError(BrowserEnv &Env, fs::FileSystem &Fs,
                                       size_t FileBytes, int MaxFiles) {
  for (int I = 0; I != MaxFiles; ++I) {
    std::optional<ApiError> Err;
    bool Called = false;
    Fs.writeFile("/fill" + std::to_string(I),
                 blob(FileBytes, static_cast<uint8_t>(I)),
                 [&](std::optional<ApiError> E) {
                   Err = E;
                   Called = true;
                 });
    drain(Env);
    EXPECT_TRUE(Called);
    if (Err)
      return Err;
  }
  return std::nullopt;
}

std::unique_ptr<fs::AsyncKvStore> makeQuotaStore(BrowserEnv &Env,
                                                 const std::string &Name,
                                                 uint64_t QuotaBytes) {
  if (Name == "localstorage")
    return std::make_unique<fs::LocalStorageKv>(Env); // Profile 5 MB quota.
  if (Name == "indexeddb") {
    Env.indexedDB()->setQuotaBytes(QuotaBytes);
    return std::make_unique<fs::IndexedDbKv>(Env);
  }
  auto Cloud = std::make_unique<fs::CloudKv>(Env);
  Cloud->setQuotaBytes(QuotaBytes);
  return Cloud;
}

class QuotaEnospc : public ::testing::TestWithParam<std::string> {};

TEST_P(QuotaEnospc, SurfacesUniformlyAtFsLayer) {
  BrowserEnv Env(chromeProfile());
  auto Backend = std::make_unique<fs::KeyValueBackend>(
      Env, makeQuotaStore(Env, GetParam(), 256 * 1024));
  bool Ready = false;
  Backend->initialize([&](std::optional<ApiError> E) {
    ASSERT_FALSE(E.has_value());
    Ready = true;
  });
  drain(Env);
  ASSERT_TRUE(Ready);
  Process Proc;
  fs::FileSystem Fs(Env, Proc, std::move(Backend));

  // localStorage's profile quota is 5 MB; the others are capped at 256 KB.
  size_t FileBytes = GetParam() == "localstorage" ? 512 * 1024 : 48 * 1024;
  std::optional<ApiError> Err = fillUntilError(Env, Fs, FileBytes, 32);
  ASSERT_TRUE(Err.has_value()) << "quota never hit for " << GetParam();
  EXPECT_EQ(Err->Code, Errno::NoSpace) << Err->message();
}

TEST_P(QuotaEnospc, SurfacesThroughTheCacheToo) {
  BrowserEnv Env(chromeProfile());
  auto Cached = std::make_unique<CachedKvStore>(
      Env, makeQuotaStore(Env, GetParam(), 256 * 1024), quiescentConfig());
  CachedKvStore *Cache = Cached.get();
  auto Backend =
      std::make_unique<fs::KeyValueBackend>(Env, std::move(Cached));
  bool Ready = false;
  Backend->initialize([&](std::optional<ApiError> E) {
    ASSERT_FALSE(E.has_value());
    Ready = true;
  });
  drain(Env);
  ASSERT_TRUE(Ready);
  Process Proc;
  fs::FileSystem Fs(Env, Proc, std::move(Backend));

  size_t FileBytes = GetParam() == "localstorage" ? 512 * 1024 : 48 * 1024;
  // The quota must be reached by distinct data: no value repeats a block.
  Manifest M = makeManifest(blob(FileBytes, 0), quiescentConfig().BlockBytes);
  EXPECT_EQ(std::set<BlockId>(M.Blocks.begin(), M.Blocks.end()).size(),
            M.Blocks.size());
  std::optional<ApiError> Err = fillUntilError(Env, Fs, FileBytes, 32);
  ASSERT_TRUE(Err.has_value());
  EXPECT_EQ(Err->Code, Errno::NoSpace) << Err->message();
  EXPECT_GE(Cache->stats().QuotaRejects, 1u);
}

INSTANTIATE_TEST_SUITE_P(Adapters, QuotaEnospc,
                         ::testing::Values("localstorage", "indexeddb",
                                           "cloud"));

TEST(CachedStore, QuotaPressureEvictionPerProfile) {
  for (const Profile &P : allProfiles()) {
    SCOPED_TRACE(P.Name);
    BrowserEnv Env(P);
    auto Slow = std::make_unique<fs::CloudKv>(Env);
    Slow->setQuotaBytes(220 * 1024);
    CacheConfig C = quiescentConfig();
    C.CheckpointJournalBytes = 1; // Checkpoint + GC after every flush.
    CachedKvStore Store(Env, std::move(Slow), C);
    drain(Env);
    ASSERT_TRUE(Store.ready());

    ASSERT_FALSE(putKv(Env, Store, "a", blob(64 * 1024, 1)).has_value());
    ASSERT_FALSE(putKv(Env, Store, "b", blob(64 * 1024, 2)).has_value());
    ASSERT_FALSE(syncKv(Env, Store).has_value());
    // Overwrite: the old "a" blocks are dead after the next checkpoint.
    ASSERT_FALSE(putKv(Env, Store, "a", blob(64 * 1024, 3)).has_value());
    ASSERT_FALSE(syncKv(Env, Store).has_value());
    ASSERT_FALSE(putKv(Env, Store, "c", blob(64 * 1024, 4)).has_value());
    ASSERT_FALSE(syncKv(Env, Store).has_value());

    // ~192 KB live of 220 KB quota: the next 64 KB put cannot fit.
    std::optional<ApiError> Err = putKv(Env, Store, "d", blob(64 * 1024, 5));
    ASSERT_TRUE(Err.has_value());
    EXPECT_EQ(Err->Code, Errno::NoSpace);
    EXPECT_GE(Store.stats().QuotaRejects, 1u);
    EXPECT_GE(Store.stats().GcBlocks, 4u); // Old "a" reclaimed earlier.

    // Deleting a key and letting checkpoint + GC run frees real quota.
    Store.del("b", [](std::optional<ApiError>) {});
    ASSERT_FALSE(syncKv(Env, Store).has_value());
    ASSERT_FALSE(putKv(Env, Store, "d", blob(64 * 1024, 5)).has_value());
    ASSERT_FALSE(syncKv(Env, Store).has_value());
    auto V = getKv(Env, Store, "d");
    ASSERT_TRUE(V.has_value());
    EXPECT_EQ(*V, blob(64 * 1024, 5));
  }
}

TEST(CachedStore, QuotaBillsARepeatedBlockOnce) {
  // 64 KB of zeros is one distinct 16 KB block stored once: the quota
  // projection must bill it once, not once per occurrence (which would
  // be 64 KB against a 40 KB quota).
  BrowserEnv Env(chromeProfile());
  auto Slow = std::make_unique<fs::CloudKv>(Env);
  Slow->setQuotaBytes(40 * 1024);
  CachedKvStore Store(Env, std::move(Slow), quiescentConfig());
  drain(Env);
  ASSERT_TRUE(Store.ready());
  Bytes Zeros(64 * 1024, 0);
  ASSERT_FALSE(putKv(Env, Store, "zeros", Zeros).has_value());
  ASSERT_FALSE(syncKv(Env, Store).has_value());
  EXPECT_EQ(Store.stats().QuotaRejects, 0u);
  auto V = getKv(Env, Store, "zeros");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(*V, Zeros);
}

/// Overwrites chained faster than the Background-lane flush timer can
/// fire (as when foreground work starves that lane): the quota projection
/// must release each dropped dirty block, and the open group must flush
/// once it outgrows the checkpoint size instead of growing without bound.
TEST(CachedStore, ChainedOverwritesWithoutTheTimerStayWithinQuota) {
  BrowserEnv Env(chromeProfile());
  Env.indexedDB()->setQuotaBytes(1u << 20);
  CacheConfig C = quiescentConfig();
  C.FlushIntervalNs = browser::msToNs(3600 * 1000);
  C.CheckpointJournalBytes = 4 * 1024;
  CachedKvStore Store(Env, std::make_unique<fs::IndexedDbKv>(Env), C);
  drain(Env);
  ASSERT_TRUE(Store.ready());

  // 8 keys of one 16 KB block each (128 KB live of a 1 MB quota), each
  // overwritten 200 times with fresh contents.
  auto Value = [](int Round, int K) {
    Bytes V = blob(16 * 1024, static_cast<uint8_t>(K));
    V[0] = static_cast<uint8_t>(Round);
    V[1] = static_cast<uint8_t>(Round >> 8);
    return V;
  };
  size_t MaxStaged = 0;
  for (int Round = 0; Round != 200; ++Round) {
    for (int K = 0; K != 8; ++K) {
      std::optional<ApiError> Err =
          putKv(Env, Store, "k" + std::to_string(K), Value(Round, K));
      ASSERT_FALSE(Err.has_value())
          << "round " << Round << " key " << K << ": " << Err->message();
      MaxStaged = std::max(MaxStaged, Store.journal().stagedRecords());
    }
  }
  EXPECT_LT(Env.clock().nowNs(), C.FlushIntervalNs); // The timer never ran.
  // A record of a two-character key and one block is 35 bytes: the open
  // group never holds much more than the checkpoint size.
  EXPECT_LE(MaxStaged, C.CheckpointJournalBytes / 35 + 1);

  ASSERT_FALSE(syncKv(Env, Store).has_value());
  for (int K = 0; K != 8; ++K) {
    auto V = getKv(Env, Store, "k" + std::to_string(K));
    ASSERT_TRUE(V.has_value());
    EXPECT_EQ(*V, Value(199, K));
  }
}

//===----------------------------------------------------------------------===//
// FS semantics over the cached store
//===----------------------------------------------------------------------===//

TEST(CachedStore, FileSystemSemanticsAndReload) {
  BrowserEnv Env(chromeProfile());
  {
    auto Cached = std::make_unique<CachedKvStore>(
        Env, std::make_unique<fs::IndexedDbKv>(Env), quiescentConfig());
    auto Backend =
        std::make_unique<fs::KeyValueBackend>(Env, std::move(Cached));
    fs::KeyValueBackend *KvB = Backend.get();
    bool Ready = false;
    Backend->initialize([&](std::optional<ApiError> E) {
      ASSERT_FALSE(E.has_value());
      Ready = true;
    });
    drain(Env);
    ASSERT_TRUE(Ready);
    Process Proc;
    fs::FileSystem Fs(Env, Proc, std::move(Backend));

    bool Done = false;
    Fs.mkdir("/app", [&](std::optional<ApiError> E) {
      ASSERT_FALSE(E.has_value());
      Done = true;
    });
    drain(Env);
    ASSERT_TRUE(Done);
    Fs.writeFile("/app/data", bytesOf("cached bits"),
                 [](std::optional<ApiError> E) {
                   ASSERT_FALSE(E.has_value());
                 });
    drain(Env);
    std::vector<std::string> Listing;
    Fs.readdir("/app", [&](ErrorOr<std::vector<std::string>> R) {
      ASSERT_TRUE(R.ok());
      Listing = *R;
    });
    drain(Env);
    EXPECT_EQ(Listing, std::vector<std::string>{"data"});

    // The backend's durability barrier drains the cache.
    bool Synced = false;
    KvB->sync([&](std::optional<ApiError> E) {
      EXPECT_FALSE(E.has_value());
      Synced = true;
    });
    drain(Env);
    ASSERT_TRUE(Synced);
  }

  // A reload (fresh backend + fresh cache over the same IndexedDB) sees
  // the synced tree.
  auto Cached = std::make_unique<CachedKvStore>(
      Env, std::make_unique<fs::IndexedDbKv>(Env), quiescentConfig());
  auto Backend =
      std::make_unique<fs::KeyValueBackend>(Env, std::move(Cached));
  bool Ready = false;
  Backend->initialize([&](std::optional<ApiError> E) {
    ASSERT_FALSE(E.has_value());
    Ready = true;
  });
  drain(Env);
  ASSERT_TRUE(Ready);
  Process Proc;
  fs::FileSystem Fs(Env, Proc, std::move(Backend));
  std::optional<Bytes> Data;
  Fs.readFile("/app/data", [&](ErrorOr<Bytes> R) {
    ASSERT_TRUE(R.ok()) << R.error().message();
    Data = *R;
  });
  drain(Env);
  ASSERT_TRUE(Data.has_value());
  EXPECT_EQ(textOf(*Data), "cached bits");
}

//===----------------------------------------------------------------------===//
// KeyValueBackend: per-directory records
//===----------------------------------------------------------------------===//

/// A synchronous store over a map the test owns, so its objects outlive
/// every mount and can be edited between mounts.
class MapKv : public fs::AsyncKvStore {
public:
  explicit MapKv(std::map<std::string, Bytes> &Objects) : Objects(Objects) {}
  std::string storeName() const override { return "map"; }
  void get(const std::string &Key, GetCb Done) override {
    auto It = Objects.find(Key);
    Done(It == Objects.end() ? std::optional<Bytes>()
                             : std::optional<Bytes>(It->second));
  }
  void put(const std::string &Key, const Bytes &Value,
           DoneCb Done) override {
    Objects[Key] = Value;
    Done(std::nullopt);
  }
  void del(const std::string &Key, DoneCb Done) override {
    Objects.erase(Key);
    Done(std::nullopt);
  }

private:
  std::map<std::string, Bytes> &Objects;
};

/// Forwards to a store it does not own. Records every put (key, size),
/// and fails the FailAt-th get/put/del with EIO when FailAt is set.
class CountingKv : public fs::AsyncKvStore {
public:
  explicit CountingKv(fs::AsyncKvStore &Inner) : Inner(Inner) {}
  std::string storeName() const override { return Inner.storeName(); }
  void get(const std::string &Key, GetCb Done) override {
    if (injectFailure())
      Done(ApiError(Errno::Io, "injected: " + Key));
    else
      Inner.get(Key, std::move(Done));
  }
  void put(const std::string &Key, const Bytes &Value,
           DoneCb Done) override {
    if (injectFailure()) {
      Done(ApiError(Errno::Io, "injected: " + Key));
      return;
    }
    Puts.emplace_back(Key, Value.size());
    Inner.put(Key, Value, std::move(Done));
  }
  void del(const std::string &Key, DoneCb Done) override {
    if (injectFailure())
      Done(ApiError(Errno::Io, "injected: " + Key));
    else
      Inner.del(Key, std::move(Done));
  }
  void sync(DoneCb Done) override { Inner.sync(std::move(Done)); }

  std::vector<std::pair<std::string, size_t>> Puts;
  uint64_t Calls = 0;
  uint64_t FailAt = 0;

private:
  bool injectFailure() { return ++Calls == FailAt; }

  fs::AsyncKvStore &Inner;
};

/// path -> (is directory, size, mtime): everything the records persist.
using Tree = std::map<std::string, std::tuple<bool, uint64_t, uint64_t>>;

Tree treeOf(const fs::FileIndex &Index) {
  Tree T;
  for (const std::string &D : Index.allDirs())
    T[D] = {true, 0, 0};
  for (const std::string &F : Index.allFiles()) {
    const fs::FileIndex::Meta *M = Index.lookup(F);
    T[F] = {false, M->SizeBytes, M->MtimeNs};
  }
  return T;
}

/// Runs one completion-style call and drains the loop.
std::optional<ApiError> call(BrowserEnv &Env,
                             const std::function<void(fs::CompletionCb)> &Fn) {
  std::optional<ApiError> Out;
  bool Called = false;
  Fn([&](std::optional<ApiError> E) {
    Out = E;
    Called = true;
  });
  drain(Env);
  EXPECT_TRUE(Called);
  return Out;
}

/// One tab whose file system is a KeyValueBackend over the named store
/// ("localstorage", "indexeddb", "cloud", "cached-indexeddb"), reached
/// through a CountingKv. The stored objects outlive every mount: the
/// tab keeps localStorage and IndexedDB, the cloud adapter is kept, and
/// the cache is rebuilt over IndexedDB on each mount.
struct KvWorld {
  explicit KvWorld(std::string Name) : Name(std::move(Name)) {}
  ~KvWorld() {
    Fs.reset();
    drain(Env);
  }

  /// Syncs and drops the current mount, then mounts afresh.
  std::optional<ApiError> remount() {
    if (Kv) {
      std::optional<ApiError> Err =
          call(Env, [&](fs::CompletionCb Done) { Kv->sync(Done); });
      if (Err)
        return Err;
    }
    Fs.reset();
    Kv = nullptr;
    drain(Env);
    if (Name == "localstorage")
      Store = std::make_unique<fs::LocalStorageKv>(Env);
    else if (Name == "indexeddb")
      Store = std::make_unique<fs::IndexedDbKv>(Env);
    else if (Name == "cloud")
      Store = std::make_unique<CountingKv>(Cloud);
    else
      Store = std::make_unique<CachedKvStore>(
          Env, std::make_unique<fs::IndexedDbKv>(Env), quiescentConfig());
    auto C = std::make_unique<CountingKv>(*Store);
    Counter = C.get();
    auto B = std::make_unique<fs::KeyValueBackend>(Env, std::move(C));
    Kv = B.get();
    std::optional<ApiError> Err =
        call(Env, [&](fs::CompletionCb Done) { B->initialize(Done); });
    Fs = std::make_unique<fs::FileSystem>(Env, Proc, std::move(B));
    return Err;
  }

  std::optional<ApiError> mkdir(const std::string &P) {
    return call(Env, [&](fs::CompletionCb Done) { Fs->mkdir(P, Done); });
  }
  std::optional<ApiError> write(const std::string &P, const Bytes &Data) {
    return call(Env,
                [&](fs::CompletionCb Done) { Fs->writeFile(P, Data, Done); });
  }
  Tree tree() const { return treeOf(Kv->index()); }

  std::string Name;
  BrowserEnv Env{chromeProfile()};
  Process Proc;
  fs::CloudKv Cloud{Env};
  std::unique_ptr<fs::AsyncKvStore> Store;
  CountingKv *Counter = nullptr;
  fs::KeyValueBackend *Kv = nullptr;
  std::unique_ptr<fs::FileSystem> Fs;
};

class KvRecords : public ::testing::TestWithParam<std::string> {};

TEST_P(KvRecords, EveryOperationSurvivesARemount) {
  KvWorld W(GetParam());
  ASSERT_FALSE(W.remount());
  ASSERT_FALSE(W.mkdir("/a"));
  ASSERT_FALSE(W.mkdir("/a/b"));
  ASSERT_FALSE(W.mkdir("/a/line\nbreak"));
  ASSERT_FALSE(W.write("/a/f1", blob(3000, 1)));
  ASSERT_FALSE(W.write("/a/b/f2", blob(40000, 2)));
  ASSERT_FALSE(W.write("/a/line\nbreak/f\n3", blob(10, 3)));
  ASSERT_FALSE(W.write("/top", blob(500, 4)));
  ASSERT_FALSE(W.write("/a/f1", blob(2000, 5))); // Rewrite: new size.
  ASSERT_FALSE(
      call(W.Env, [&](fs::CompletionCb D) { W.Fs->unlink("/a/f1", D); }));
  ASSERT_FALSE(W.mkdir("/gone"));
  ASSERT_FALSE(
      call(W.Env, [&](fs::CompletionCb D) { W.Fs->rmdir("/gone", D); }));
  ASSERT_FALSE(call(W.Env, [&](fs::CompletionCb D) {
    W.Fs->rename("/top", "/a/b/top2", D);
  }));
  ASSERT_FALSE(call(W.Env, [&](fs::CompletionCb D) {
    W.Fs->rename("/a/b", "/moved", D);
  }));
  ASSERT_FALSE(call(W.Env, [&](fs::CompletionCb D) {
    W.Fs->rename("/moved/f2", "/moved/f2r", D);
  }));
  // Renaming onto itself changes nothing; a directory cannot replace a
  // file.
  ASSERT_FALSE(call(W.Env, [&](fs::CompletionCb D) {
    W.Fs->rename("/moved/f2r", "/moved/f2r", D);
  }));
  std::optional<ApiError> NotDir = call(W.Env, [&](fs::CompletionCb D) {
    W.Fs->rename("/a", "/moved/top2", D);
  });
  ASSERT_TRUE(NotDir.has_value());
  EXPECT_EQ(NotDir->Code, Errno::NotDir);

  Tree Before = W.tree();
  Tree Want = {{"/a", {true, 0, 0}},
               {"/a/line\nbreak", {true, 0, 0}},
               {"/a/line\nbreak/f\n3", {false, 10, 0}},
               {"/moved", {true, 0, 0}},
               {"/moved/f2r", {false, 40000, 0}},
               {"/moved/top2", {false, 500, 0}}};
  ASSERT_EQ(Before.size(), Want.size());
  for (const auto &[Path, Entry] : Want) {
    ASSERT_TRUE(Before.count(Path)) << Path;
    EXPECT_EQ(std::get<0>(Before[Path]), std::get<0>(Entry)) << Path;
    EXPECT_EQ(std::get<1>(Before[Path]), std::get<1>(Entry)) << Path;
  }

  ASSERT_FALSE(W.remount());
  EXPECT_EQ(W.tree(), Before);
  std::optional<Bytes> Data;
  W.Fs->readFile("/moved/f2r", [&](ErrorOr<Bytes> R) {
    ASSERT_TRUE(R.ok()) << R.error().message();
    Data = *R;
  });
  drain(W.Env);
  ASSERT_TRUE(Data.has_value());
  EXPECT_EQ(*Data, blob(40000, 2));
}

TEST_P(KvRecords, AWritePutsOneRecordSizedByItsDirectory) {
  KvWorld W(GetParam());
  ASSERT_FALSE(W.remount());
  ASSERT_FALSE(W.mkdir("/d"));
  for (int I = 0; I != 8; ++I)
    ASSERT_FALSE(W.write("/d/f" + std::to_string(I), blob(100, 1)));

  // Overwrites /d/f0; returns the records it put.
  auto Overwrite = [&](uint8_t Seed) {
    W.Counter->Puts.clear();
    EXPECT_FALSE(W.write("/d/f0", blob(100, Seed)));
    std::vector<std::pair<std::string, size_t>> Records;
    size_t Payloads = 0;
    for (const auto &[Key, Size] : W.Counter->Puts) {
      if (Key.compare(0, 2, "d:") == 0)
        Records.emplace_back(Key, Size);
      Payloads += Key == "f:/d/f0";
    }
    EXPECT_EQ(Payloads, 1u);
    EXPECT_EQ(W.Counter->Puts.size(), 2u);
    return Records;
  };
  auto Small = Overwrite(2);
  ASSERT_EQ(Small.size(), 1u);
  EXPECT_EQ(Small[0].first, "d:/d");

  // 160 files elsewhere in the tree leave the record's size alone.
  for (int D = 0; D != 4; ++D) {
    std::string Dir = "/else" + std::to_string(D);
    ASSERT_FALSE(W.mkdir(Dir));
    for (int I = 0; I != 40; ++I)
      ASSERT_FALSE(W.write(Dir + "/file" + std::to_string(I), blob(64, 3)));
  }
  auto Large = Overwrite(4);
  ASSERT_EQ(Large.size(), 1u);
  EXPECT_EQ(Large[0], Small[0]);
}

/// rmdir is two store calls (the parent's record, then the directory's
/// own). Failing either must leave a remount with the tree from before
/// or after the rmdir, never a blend.
TEST_P(KvRecords, TornRmdirRemountsToBeforeOrAfter) {
  for (uint64_t K = 1;; ++K) {
    SCOPED_TRACE("failed call " + std::to_string(K));
    KvWorld W(GetParam());
    ASSERT_FALSE(W.remount());
    ASSERT_FALSE(W.mkdir("/a"));
    ASSERT_FALSE(W.mkdir("/a/keep"));
    ASSERT_FALSE(W.mkdir("/a/gone"));
    ASSERT_FALSE(W.write("/a/keep/x", blob(100, 1)));
    ASSERT_FALSE(W.remount());
    Tree Before = W.tree();
    Tree After = Before;
    After.erase("/a/gone");

    W.Counter->FailAt = W.Counter->Calls + K;
    std::optional<ApiError> Err = call(
        W.Env, [&](fs::CompletionCb D) { W.Fs->rmdir("/a/gone", D); });
    ASSERT_FALSE(W.remount());
    Tree Got = W.tree();
    EXPECT_TRUE(Got == Before || Got == After);
    if (!Err) {
      EXPECT_EQ(Got, After);
      EXPECT_GE(K, 3u); // Both calls were failed in turn.
      break;
    }
    ASSERT_LT(K, 8u);
  }
}

INSTANTIATE_TEST_SUITE_P(Stores, KvRecords,
                         ::testing::Values("localstorage", "indexeddb",
                                           "cloud", "cached-indexeddb"),
                         [](const ::testing::TestParamInfo<std::string> &I) {
                           std::string N = I.param;
                           N.erase(std::remove(N.begin(), N.end(), '-'),
                                   N.end());
                           return N;
                         });

/// The directory-record decoder on torn and bit-flipped input: records
/// captured from a real tree are truncated or have bits flipped, and each
/// mount must either rebuild exactly the original tree or fail
/// initialize(). Runs in the sanitizer leg with the other storage tests.
TEST(KvRecordDecoder, MutatedRecordsDecodeExactlyOrFailInitialize) {
  BrowserEnv Env(chromeProfile());
  Process Proc;
  std::map<std::string, Bytes> Objects;
  Tree Want;
  {
    auto B = std::make_unique<fs::KeyValueBackend>(
        Env, std::make_unique<MapKv>(Objects));
    fs::KeyValueBackend *Kv = B.get();
    ASSERT_FALSE(call(Env, [&](fs::CompletionCb D) { B->initialize(D); }));
    fs::FileSystem Fs(Env, Proc, std::move(B));
    for (const char *Dir : {"/work", "/work/src", "/work/src/com",
                            "/work/src/com/sun", "/work/out",
                            "/work/out/com", "/work/new\nline", "/lib"})
      ASSERT_FALSE(
          call(Env, [&](fs::CompletionCb D) { Fs.mkdir(Dir, D); }));
    const char *Leaves[] = {"/work/src/com/sun", "/work/out/com",
                            "/work/new\nline", "/lib", "/"};
    for (int I = 0; I != 60; ++I) {
      std::string Path = std::string(Leaves[I % 5]) + (I % 5 == 4 ? "" : "/") +
                         "C" + std::to_string(I) +
                         (I % 7 == 0 ? ".cla\nss" : ".class");
      ASSERT_FALSE(call(Env, [&](fs::CompletionCb D) {
        Fs.writeFile(Path, blob(static_cast<size_t>(I * 37), 1), D);
      }));
    }
    Want = treeOf(Kv->index());
  }
  std::map<std::string, Bytes> Records;
  for (const auto &[Key, Value] : Objects)
    if (Key.compare(0, 2, "d:") == 0)
      Records[Key] = Value;
  ASSERT_EQ(Records.size(), 9u); // "/" and the eight directories.

  auto Mount = [&](std::map<std::string, Bytes> &Store, Tree &Got) {
    fs::KeyValueBackend B(Env, std::make_unique<MapKv>(Store));
    std::optional<ApiError> Err;
    bool Called = false;
    B.initialize([&](std::optional<ApiError> E) {
      Err = E;
      Called = true;
    });
    EXPECT_TRUE(Called); // MapKv completes synchronously.
    Got = treeOf(B.index());
    return Err;
  };
  Tree Got;
  ASSERT_FALSE(Mount(Records, Got));
  ASSERT_EQ(Got, Want);

  std::vector<std::string> Keys;
  for (const auto &[Key, Value] : Records)
    Keys.push_back(Key);
  std::mt19937_64 Rng(0x5eed);
  size_t Rejected = 0;
  for (int I = 0; I != 4000; ++I) {
    std::map<std::string, Bytes> Store = Records;
    Bytes &Rec = Store[Keys[Rng() % Keys.size()]];
    if (I % 2 == 0) {
      Rec.resize(Rng() % Rec.size());
    } else {
      for (uint64_t Flips = 1 + Rng() % 3; Flips; --Flips) {
        size_t Bit = Rng() % (Rec.size() * 8);
        Rec[Bit / 8] ^= static_cast<uint8_t>(1u << (Bit % 8));
      }
    }
    bool Unchanged = Store == Records;
    if (Mount(Store, Got)) {
      ++Rejected;
      EXPECT_EQ(Got, Tree()) << "mutation " << I; // Nothing half-loaded.
      EXPECT_FALSE(Unchanged) << "mutation " << I;
      continue;
    }
    ASSERT_EQ(Got, Want) << "mutation " << I;
  }
  // Only a flip undone by a second flip of the same bit leaves a record
  // intact.
  EXPECT_GE(Rejected, 3900u);
}

//===----------------------------------------------------------------------===//
// Power-cut fuzz sweep
//===----------------------------------------------------------------------===//

/// The crash-consistency acceptance test: a scripted run over IndexedDB
/// builds N committed groups; the journal image is then cut at EVERY byte
/// offset (record boundaries and mid-record alike) and recovery must
/// yield exactly the tree after the longest fully-committed prefix of
/// groups — never a blend, never a torn value.
TEST(StorageCrashSweep, EveryByteOffsetRecoversAPrefix) {
  BrowserEnv Env(chromeProfile());
  ASSERT_NE(Env.indexedDB(), nullptr);

  using Model = std::map<std::string, Bytes>;
  std::vector<Model> States;   // States[k]: tree after k committed groups.
  std::vector<size_t> Offsets; // Offsets[k]: journal size after group k+1.
  States.push_back({});        // Zero groups: the empty tree.

  Bytes FullJournal;
  {
    CachedKvStore Store(Env, std::make_unique<fs::IndexedDbKv>(Env),
                        quiescentConfig());
    drain(Env);
    ASSERT_TRUE(Store.ready());

    Model M;
    auto Group = [&](std::vector<std::pair<std::string, std::string>> Puts,
                     std::vector<std::string> Dels) {
      for (auto &[K, V] : Puts) {
        ASSERT_FALSE(putKv(Env, Store, K, bytesOf(V)).has_value());
        M[K] = bytesOf(V);
      }
      for (auto &K : Dels) {
        Store.del(K, [](std::optional<ApiError>) {});
        M.erase(K);
      }
      ASSERT_FALSE(syncKv(Env, Store).has_value());
      States.push_back(M);
      Offsets.push_back(Store.journal().bytes().size());
    };

    Group({{"a", "one"}, {"b", "two"}}, {});
    Group({{"c", std::string(600, 'c')}}, {});
    Group({{"a", "one-rewritten"}, {"d", "four"}}, {"b"});
    Group({{"e", std::string(100, 'e')}, {"f", "six"}}, {"c"});
    Group({}, {"d", "f"});
    Group({{"g", "last"}}, {});
    FullJournal = Store.journal().bytes();
  }
  ASSERT_EQ(Offsets.back(), FullJournal.size());
  ASSERT_GE(FullJournal.size(), 100u);

  for (size_t Cut = 0; Cut <= FullJournal.size(); ++Cut) {
    // Power cut: only a prefix of the journal image reached storage.
    Bytes Torn(FullJournal.begin(),
               FullJournal.begin() + static_cast<ptrdiff_t>(Cut));
    bool Wrote = false;
    Env.indexedDB()->put("journal", Torn, [&](bool Ok) {
      ASSERT_TRUE(Ok);
      Wrote = true;
    });
    drain(Env);
    ASSERT_TRUE(Wrote);

    CachedKvStore Store(Env, std::make_unique<fs::IndexedDbKv>(Env),
                        quiescentConfig());
    drain(Env);
    ASSERT_TRUE(Store.ready());

    // The recovered tree must be the state after exactly the groups whose
    // commit record fits inside the cut.
    size_t K = 0;
    while (K < Offsets.size() && Offsets[K] <= Cut)
      ++K;
    ASSERT_EQ(Store.stats().ReplayedCommits, K) << "cut=" << Cut;
    const Model &Want = States[K];

    ASSERT_EQ(Store.directory().size(), Want.size()) << "cut=" << Cut;
    for (const auto &[Key, Val] : Want) {
      auto Got = getKv(Env, Store, Key);
      ASSERT_TRUE(Got.has_value()) << "cut=" << Cut << " key=" << Key;
      ASSERT_EQ(*Got, Val) << "cut=" << Cut << " key=" << Key;
    }
  }
}

} // namespace
