//===- perfbench/src/tracer.h - Outside-in layer attribution ------*- C++ -*-==//
//
// The traced run attributes host time to the repository's layers without
// touching their code: the benchmark inserts thin forwarding decorators at
// the layers' public interfaces (AsyncKvStore, FileSystemBackend,
// FileDescriptor) and opens a span around every call into the wrapped
// object. Callbacks the wrapped object invokes are themselves wrapped in an
// "upcall" span charged to the caller's layer, so a layer's self time
// excludes the work of the code it calls back into.
//
// Spans nest strictly: everything runs on one thread, a call's span closes
// before it returns, and the benchmark's own root span (one op, or one jvm
// launch) stays open from issue to guest resumption. A layer's self time is a
// span's duration minus the time covered by its children. Self times are
// accumulated per layer as spans close; the first MaxRetained spans are
// also kept (name, start, end, parent) and written out at exit.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include "common.h"

#include "doppio/backends/kv_store.h"
#include "doppio/fs_backend.h"

#include <array>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Attribution buckets. Each span is charged to exactly one.
enum Layer : int {
  /// The fs frontend, KeyValueBackend, event dispatch, timer-driven cache
  /// flushes and the benchmark's own op/sync roots: whatever no decorator
  /// claims.
  LayerFsOther,
  /// Calls into CachedKvStore, and slow-store callbacks into it.
  LayerStorage,
  /// Calls into IndexedDbKv.
  LayerSlowStore,
  /// Calls into the jvm deployment's mounted backends and descriptors.
  LayerJvmFs,
  /// The jvm launch root and upcalls out of the mounted backends.
  LayerJvmOther,
  NumLayers
};

class Tracer {
public:
  static constexpr size_t MaxRetained = 20000;

  struct Span {
    const char *Name;
    int L;
    int64_t Parent; // Index into retained spans, -1 for none/unretained.
    uint64_t StartNs, EndNs;
  };

  /// Spans are recorded only while On.
  bool On = false;

  /// Opens a span; returns its stack depth token for end().
  size_t begin(const char *Name, int L);
  /// Closes every span from the top of the stack down to \p Token.
  void end(size_t Token);

  uint64_t selfNs(int L) const { return SelfNs[L]; }
  /// Root spans' total duration: what the self times must sum to.
  uint64_t rootNs() const { return RootNs; }
  /// Spans closed out of order (a child outliving its parent).
  uint64_t misnested() const { return Misnested; }
  void resetTotals();

  /// Writes the retained spans as JSON lines; false on I/O failure.
  bool writeOut(const std::string &Path) const;

private:
  struct Open {
    int L;
    uint64_t StartNs;
    uint64_t ChildNs;
    int64_t Retained;
  };
  std::vector<Open> Stack;
  std::vector<Span> Retained;
  std::array<uint64_t, NumLayers> SelfNs{};
  uint64_t RootNs = 0;
  uint64_t Misnested = 0;
};

/// The process's tracer (the benchmark is single-threaded).
Tracer &tracer();

/// Reports trace.overhead_pct from the untraced ([0]) and traced ([1])
/// units' total host time and unit counts. With \p Spans, also details how
/// far the per-layer self times of a traced unit sum from an untraced
/// unit's time: the two agree within the overhead when the spans account
/// for all of the op time.
void reportTraceOverhead(Result &R, const double UnitNs[2],
                         const double Units[2], const char *UnitName,
                         bool Spans = true);

/// RAII span; inert while the tracer is off.
class Scope {
public:
  Scope(const char *Name, int L) : Active(tracer().On) {
    if (Active)
      Token = tracer().begin(Name, L);
  }
  ~Scope() {
    if (Active)
      tracer().end(Token);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  bool Active;
  size_t Token = 0;
};

/// Wraps a completion so its body is an upcall span charged to \p L.
template <typename Fn> Fn upcall(Fn Done, int L) {
  return [Done = std::move(Done), L](auto... Args) mutable {
    Scope S("upcall", L);
    Done(std::move(Args)...);
  };
}

/// Forwarding AsyncKvStore decorator: spans calls into the wrapped store
/// (\p CallLayer) and its callbacks (\p UpLayer), counts traffic, and can
/// add a fixed host delay to every put (the sensitivity self-check) or
/// acknowledge every sync at once without forwarding it (the self-test of
/// fs-write's durability check).
class TimedKv : public doppio::rt::fs::AsyncKvStore {
public:
  struct Counts {
    uint64_t PutBytes = 0, IndexPuts = 0, GetBytes = 0;
  };

  TimedKv(std::unique_ptr<AsyncKvStore> Inner, int CallLayer, int UpLayer,
          uint64_t PutDelayNs = 0, bool DropSync = false)
      : Inner(std::move(Inner)), CallLayer(CallLayer), UpLayer(UpLayer),
        PutDelayNs(PutDelayNs), DropSync(DropSync) {}

  std::string storeName() const override { return Inner->storeName(); }
  void get(const std::string &Key, GetCb Done) override;
  void put(const std::string &Key, const Bytes &Value, DoneCb Done) override;
  void del(const std::string &Key, DoneCb Done) override;
  uint64_t usedBytes() const override { return Inner->usedBytes(); }
  uint64_t quotaBytes() const override { return Inner->quotaBytes(); }
  uint64_t putCostBytes(const std::string &Key,
                        size_t ValueBytes) const override {
    return Inner->putCostBytes(Key, ValueBytes);
  }
  void sync(DoneCb Done) override;

  /// Traffic seen while the tracer was on.
  Counts counts() const { return C; }

private:
  std::unique_ptr<AsyncKvStore> Inner;
  int CallLayer, UpLayer;
  uint64_t PutDelayNs;
  bool DropSync;
  Counts C;
};

/// Forwarding FileSystemBackend decorator; descriptors it opens are
/// wrapped too, so reads through them are charged to \p CallLayer.
class TimedBackend : public doppio::rt::fs::FileSystemBackend {
public:
  TimedBackend(std::unique_ptr<FileSystemBackend> Inner, int CallLayer,
               int UpLayer)
      : Inner(std::move(Inner)), CallLayer(CallLayer), UpLayer(UpLayer) {}

  std::string backendName() const override { return Inner->backendName(); }
  bool isReadOnly() const override { return Inner->isReadOnly(); }
  void rename(const std::string &OldPath, const std::string &NewPath,
              doppio::rt::fs::CompletionCb Done) override;
  void stat(const std::string &Path,
            doppio::rt::fs::ResultCb<doppio::rt::fs::Stats> Done) override;
  void open(const std::string &Path, doppio::rt::fs::OpenFlags Flags,
            doppio::rt::fs::ResultCb<doppio::rt::fs::FdPtr> Done) override;
  void unlink(const std::string &Path,
              doppio::rt::fs::CompletionCb Done) override;
  void rmdir(const std::string &Path,
             doppio::rt::fs::CompletionCb Done) override;
  void mkdir(const std::string &Path,
             doppio::rt::fs::CompletionCb Done) override;
  void readdir(const std::string &Path,
               doppio::rt::fs::ResultCb<std::vector<std::string>> Done)
      override;
  void chmod(const std::string &Path, uint32_t Mode,
             doppio::rt::fs::CompletionCb Done) override;
  void chown(const std::string &Path, uint32_t Uid, uint32_t Gid,
             doppio::rt::fs::CompletionCb Done) override;
  void utimes(const std::string &Path, uint64_t MtimeNs,
              doppio::rt::fs::CompletionCb Done) override;
  void link(const std::string &Existing, const std::string &Created,
            doppio::rt::fs::CompletionCb Done) override;
  void symlink(const std::string &Target, const std::string &Created,
               doppio::rt::fs::CompletionCb Done) override;
  void readlink(const std::string &Path,
                doppio::rt::fs::ResultCb<std::string> Done) override;

private:
  std::unique_ptr<FileSystemBackend> Inner;
  int CallLayer, UpLayer;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_H
