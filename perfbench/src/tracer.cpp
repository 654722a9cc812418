//===- perfbench/src/tracer.cpp -------------------------------------------==//

#include "tracer.h"

#include <cstdio>

using namespace doppio;
using namespace doppio::rt;
using namespace doppio::rt::fs;

namespace perfbench {

Tracer &tracer() {
  static Tracer T;
  return T;
}

size_t Tracer::begin(const char *Name, int L) {
  int64_t Idx = -1;
  if (Retained.size() < MaxRetained) {
    Idx = static_cast<int64_t>(Retained.size());
    int64_t Parent = Stack.empty() ? -1 : Stack.back().Retained;
    Retained.push_back({Name, L, Parent, 0, 0});
  }
  uint64_t Now = nowNs();
  if (Idx >= 0)
    Retained[Idx].StartNs = Now;
  Stack.push_back({L, Now, 0, Idx});
  return Stack.size() - 1;
}

void Tracer::end(size_t Token) {
  if (Token >= Stack.size()) {
    ++Misnested;
    return;
  }
  if (Stack.size() - 1 != Token)
    ++Misnested;
  uint64_t Now = nowNs();
  while (Stack.size() > Token) {
    Open O = Stack.back();
    Stack.pop_back();
    uint64_t Dur = Now - O.StartNs;
    SelfNs[O.L] += Dur > O.ChildNs ? Dur - O.ChildNs : 0;
    if (O.Retained >= 0)
      Retained[O.Retained].EndNs = Now;
    if (Stack.empty())
      RootNs += Dur;
    else
      Stack.back().ChildNs += Dur;
  }
}

void Tracer::resetTotals() {
  SelfNs.fill(0);
  RootNs = 0;
  Misnested = 0;
}

void reportTraceOverhead(Result &R, const double UnitNs[2],
                         const double Units[2], const char *UnitName,
                         bool Spans) {
  double Untraced = Units[0] > 0 ? UnitNs[0] / Units[0] : 0;
  double Traced = Units[1] > 0 ? UnitNs[1] / Units[1] : 0;
  R.metric("trace.overhead_pct",
           Untraced > 0 ? (Traced / Untraced - 1) * 100 : 0, "%");
  R.detail("trace_unit", UnitName);
  R.detail("trace_untraced_ms_per_unit", Untraced / 1e6);
  R.detail("trace_traced_ms_per_unit", Traced / 1e6);
  R.detail("trace_units_untraced", Units[0]);
  R.detail("trace_units_traced", Units[1]);
  if (!Spans)
    return;
  double SelfSum = 0;
  for (int L = 0; L < NumLayers; ++L)
    SelfSum += static_cast<double>(tracer().selfNs(L));
  R.detail("trace_self_sum_ms_per_unit",
           Units[1] > 0 ? SelfSum / Units[1] / 1e6 : 0);
  R.detail("trace_root_ms_per_unit",
           Units[1] > 0 ? static_cast<double>(tracer().rootNs()) / Units[1] /
                              1e6
                        : 0);
  R.detail("trace_misnested", static_cast<double>(tracer().misnested()));
}

bool Tracer::writeOut(const std::string &Path) const {
  static const char *LayerNames[NumLayers] = {
      "fs.other", "storage", "backends", "jvm.fs_backend", "jvm.other"};
  FILE *F = fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (size_t I = 0; I < Retained.size(); ++I) {
    const Span &S = Retained[I];
    fprintf(F,
            "{\"id\": %zu, \"name\": \"%s\", \"layer\": \"%s\", "
            "\"parent\": %lld, \"start_ns\": %llu, \"end_ns\": %llu}\n",
            I, S.Name, LayerNames[S.L], static_cast<long long>(S.Parent),
            static_cast<unsigned long long>(S.StartNs),
            static_cast<unsigned long long>(S.EndNs));
  }
  return fclose(F) == 0;
}

//===----------------------------------------------------------------------===//
// TimedKv
//===----------------------------------------------------------------------===//

void TimedKv::get(const std::string &Key, GetCb Done) {
  if (!tracer().On) {
    Inner->get(Key, std::move(Done));
    return;
  }
  Scope S("kv.get", CallLayer);
  Inner->get(Key, [this, Done = upcall(std::move(Done), UpLayer)](
                      ErrorOr<std::optional<Bytes>> R) mutable {
    if (R.ok() && R->has_value())
      C.GetBytes += (*R)->size();
    Done(std::move(R));
  });
}

void TimedKv::put(const std::string &Key, const Bytes &Value, DoneCb Done) {
  Scope S("kv.put", CallLayer);
  if (PutDelayNs) {
    uint64_t Until = nowNs() + PutDelayNs;
    while (nowNs() < Until) {
    }
  }
  if (!tracer().On) {
    Inner->put(Key, Value, std::move(Done));
    return;
  }
  C.PutBytes += Value.size();
  if (Key == "index")
    ++C.IndexPuts;
  Inner->put(Key, Value, upcall(std::move(Done), UpLayer));
}

void TimedKv::del(const std::string &Key, DoneCb Done) {
  Scope S("kv.del", CallLayer);
  Inner->del(Key, tracer().On ? upcall(std::move(Done), UpLayer)
                              : std::move(Done));
}

void TimedKv::sync(DoneCb Done) {
  Scope S("kv.sync", CallLayer);
  if (DropSync) {
    Done(std::nullopt);
    return;
  }
  Inner->sync(tracer().On ? upcall(std::move(Done), UpLayer)
                          : std::move(Done));
}

//===----------------------------------------------------------------------===//
// TimedBackend
//===----------------------------------------------------------------------===//

namespace {

/// Descriptor decorator: reads and writes through a descriptor the jvm's
/// mounts opened are that backend's work.
class TimedFd : public FileDescriptor {
public:
  TimedFd(FdPtr Inner, int CallLayer, int UpLayer)
      : Inner(std::move(Inner)), CallLayer(CallLayer), UpLayer(UpLayer) {}

  void read(Buffer &Dst, size_t DstOff, size_t Len, uint64_t Pos,
            ResultCb<size_t> Done) override {
    Scope S("fd.read", CallLayer);
    Inner->read(Dst, DstOff, Len, Pos, wrap(std::move(Done)));
  }
  void write(const Buffer &Src, size_t SrcOff, size_t Len, uint64_t Pos,
             ResultCb<size_t> Done) override {
    Scope S("fd.write", CallLayer);
    Inner->write(Src, SrcOff, Len, Pos, wrap(std::move(Done)));
  }
  void stat(ResultCb<Stats> Done) override {
    Scope S("fd.stat", CallLayer);
    Inner->stat(wrap(std::move(Done)));
  }
  void sync(CompletionCb Done) override {
    Scope S("fd.sync", CallLayer);
    Inner->sync(wrap(std::move(Done)));
  }
  void close(CompletionCb Done) override {
    Scope S("fd.close", CallLayer);
    Inner->close(wrap(std::move(Done)));
  }
  void truncate(uint64_t Size, CompletionCb Done) override {
    Scope S("fd.truncate", CallLayer);
    Inner->truncate(Size, wrap(std::move(Done)));
  }
  const std::string &path() const override { return Inner->path(); }

private:
  template <typename Fn> Fn wrap(Fn Done) {
    return tracer().On ? upcall(std::move(Done), UpLayer) : std::move(Done);
  }

  FdPtr Inner;
  int CallLayer, UpLayer;
};

} // namespace

#define PERFBENCH_FORWARD(NAME, ...)                                           \
  Scope S("fs." #NAME, CallLayer);                                             \
  Inner->NAME(__VA_ARGS__, tracer().On ? upcall(std::move(Done), UpLayer)      \
                                       : std::move(Done))

void TimedBackend::rename(const std::string &OldPath,
                          const std::string &NewPath, CompletionCb Done) {
  PERFBENCH_FORWARD(rename, OldPath, NewPath);
}
void TimedBackend::stat(const std::string &Path, ResultCb<Stats> Done) {
  PERFBENCH_FORWARD(stat, Path);
}
void TimedBackend::unlink(const std::string &Path, CompletionCb Done) {
  PERFBENCH_FORWARD(unlink, Path);
}
void TimedBackend::rmdir(const std::string &Path, CompletionCb Done) {
  PERFBENCH_FORWARD(rmdir, Path);
}
void TimedBackend::mkdir(const std::string &Path, CompletionCb Done) {
  PERFBENCH_FORWARD(mkdir, Path);
}
void TimedBackend::readdir(const std::string &Path,
                           ResultCb<std::vector<std::string>> Done) {
  PERFBENCH_FORWARD(readdir, Path);
}
void TimedBackend::chmod(const std::string &Path, uint32_t Mode,
                         CompletionCb Done) {
  PERFBENCH_FORWARD(chmod, Path, Mode);
}
void TimedBackend::chown(const std::string &Path, uint32_t Uid, uint32_t Gid,
                         CompletionCb Done) {
  PERFBENCH_FORWARD(chown, Path, Uid, Gid);
}
void TimedBackend::utimes(const std::string &Path, uint64_t MtimeNs,
                          CompletionCb Done) {
  PERFBENCH_FORWARD(utimes, Path, MtimeNs);
}
void TimedBackend::link(const std::string &Existing,
                        const std::string &Created, CompletionCb Done) {
  PERFBENCH_FORWARD(link, Existing, Created);
}
void TimedBackend::symlink(const std::string &Target,
                           const std::string &Created, CompletionCb Done) {
  PERFBENCH_FORWARD(symlink, Target, Created);
}
void TimedBackend::readlink(const std::string &Path,
                            ResultCb<std::string> Done) {
  PERFBENCH_FORWARD(readlink, Path);
}

#undef PERFBENCH_FORWARD

void TimedBackend::open(const std::string &Path, OpenFlags Flags,
                        ResultCb<FdPtr> Done) {
  Scope S("fs.open", CallLayer);
  Inner->open(Path, Flags,
              [Done = std::move(Done), CallLayer = CallLayer,
               UpLayer = UpLayer](ErrorOr<FdPtr> R) {
                Scope Up("upcall", UpLayer);
                if (!R.ok()) {
                  Done(std::move(R));
                  return;
                }
                Done(FdPtr(std::make_shared<TimedFd>(std::move(*R),
                                                     CallLayer, UpLayer)));
              });
}

} // namespace perfbench
