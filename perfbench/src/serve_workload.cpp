//===- perfbench/src/serve_workload.cpp - One long-lived doppiod ---------===//
//
// Workload "serve": one doppiod serving an in-memory tree of 32 files
// (64 B to ~8 KB, as in fig7) to 4 closed-loop FrameClients over SimNet,
// all inside this one thread. Each client sends its next request when the
// previous reply arrives; the mix is 85% file, 13% stat and 2% spawn of
// echo. Each op is one request, timed in host time from send to reply,
// and every reply body is checked against the seeded tree or the echoed
// token. The metrics handler is left out: its cost grows with retained
// samples and would swamp every other handler.
//
//===----------------------------------------------------------------------===//

#include "runs.h"

#include "tracer.h"

#include "doppio/backends/in_memory.h"
#include "doppio/proc/proc.h"
#include "doppio/proc/programs.h"
#include "doppio/server/client.h"
#include "doppio/server/handlers.h"
#include "doppio/server/server.h"

#include <algorithm>
#include <cstring>
#include <memory>

using namespace doppio;
using namespace doppio::rt;
using namespace doppio::rt::server;

namespace perfbench {
namespace {

constexpr size_t NumClients = 4;
constexpr size_t NumFiles = 32;
constexpr uint16_t Port = 7000;
/// Requests each client makes while warming up during set-up.
constexpr size_t WarmRequests = 10000;
/// peak_rss_mb is read after this many requests (OpLog).
constexpr uint64_t RssAtRequests = 500'000;
/// Requests per block of fixed work for the timing metrics (OpLog), about
/// 0.25 s.
constexpr uint64_t BlockRequests = 40'000;
/// Traced runs alternate untraced and traced windows of this length.
constexpr uint64_t TraceWindowNs = 250'000'000;

size_t fileSize(size_t I) { return 64 + 251 * I; }

std::string filePath(size_t I) { return "/srv/f" + std::to_string(I) + ".bin"; }

/// Handler service times (dispatch to respond, host) while tracing.
struct HandlerTimes {
  std::vector<double> File, Stat, Spawn;
};

Router::Handler timed(Router::Handler H, std::vector<double> &Ns) {
  return [H = std::move(H), &Ns](const frame::Request &Req,
                                 Router::RespondFn Respond) {
    if (!tracer().On) {
      H(Req, std::move(Respond));
      return;
    }
    uint64_t T0 = nowNs();
    H(Req, [Respond = std::move(Respond), &Ns, T0](
               frame::Status St, std::vector<uint8_t> Body) {
      Ns.push_back(static_cast<double>(nowNs() - T0));
      Respond(St, std::move(Body));
    });
  };
}

/// The server tab: browser, fs, process table and doppiod.
struct Tab {
  browser::BrowserEnv Env{browser::chromeProfile()};
  Process Proc;
  std::unique_ptr<fs::FileSystem> Fs;
  std::unique_ptr<proc::ProcessTable> Procs;
  proc::ProgramRegistry Progs;
  std::unique_ptr<Server> Srv;
  std::vector<std::vector<uint8_t>> Files;
  HandlerTimes Times;

  Tab(uint64_t Seed, bool Traced) {
    auto Root = std::make_unique<fs::InMemoryBackend>(Env);
    for (size_t I = 0; I < NumFiles; ++I) {
      Files.push_back(contentFor(Seed, I, 0, fileSize(I)));
      Root->seedFile(filePath(I), Files.back());
    }
    Fs = std::make_unique<fs::FileSystem>(Env, Proc, std::move(Root));
    Procs = std::make_unique<proc::ProcessTable>(Env, *Fs);
    proc::installCorePrograms(Progs);
    Server::Config Cfg;
    Cfg.Port = Port;
    Cfg.Backlog = 64;
    Cfg.MaxConnections = 128;
    Cfg.IdleTimeoutNs = browser::msToNs(2000);
    Srv = std::make_unique<Server>(Env, Cfg);
    installDefaultHandlers(Srv->router(), *Fs, nullptr, Procs.get(), &Progs);
    if (Traced) {
      Srv->router().handle("file", timed(makeFileHandler(*Fs), Times.File));
      Srv->router().handle("stat", timed(makeStatHandler(*Fs), Times.Stat));
      Srv->router().handle(
          "spawn", timed(makeSpawnHandler(*Procs, Progs), Times.Spawn));
    }
  }
};

/// One closed-loop client.
class Client {
public:
  Client(Tab &T, size_t Id, uint64_t Seed)
      : T(T), C(T.Env.net()), G(Seed * 7919 + Id), Id(Id) {}

  /// Called with each finished request: host latency and whether the reply
  /// was correct. Return false to stop sending (the connection stays open).
  std::function<bool(uint64_t Ns, bool Ok)> OnReply;
  bool Connected = false;
  bool Stopped = false;

  void connect() {
    C.connect(Port, [this](bool Ok) {
      Connected = Ok;
      Stopped = !Ok;
    });
  }

  void sendNext() {
    uint64_t Pick = G.below(100);
    std::string Handler, Body, Want;
    if (Pick < 85) {
      size_t F = G.below(NumFiles);
      Handler = "file";
      Body = filePath(F);
      Want.assign(T.Files[F].begin(), T.Files[F].end());
    } else if (Pick < 98) {
      size_t F = G.below(NumFiles);
      Handler = "stat";
      Body = filePath(F);
      Want = "file " + std::to_string(fileSize(F));
    } else {
      std::string Token = "c" + std::to_string(Id) + "n" +
                          std::to_string(Sent);
      Handler = "spawn";
      Body = "echo " + Token;
      Want = Token + "\n";
    }
    ++Sent;
    uint64_t T0 = nowNs();
    C.request(Handler, std::vector<uint8_t>(Body.begin(), Body.end()),
              [this, T0, Want = std::move(Want)](frame::Response R) {
                uint64_t Ns = nowNs() - T0;
                bool Ok = R.S == frame::Status::Ok &&
                          R.Body.size() == Want.size() &&
                          std::memcmp(R.Body.data(), Want.data(),
                                      Want.size()) == 0;
                if (OnReply(Ns, Ok))
                  sendNext();
                else
                  Stopped = true;
              });
  }

  void close() { C.close(); }

private:
  Tab &T;
  FrameClient C;
  Rng G;
  size_t Id;
  uint64_t Sent = 0;
};

uint64_t counterSum(const obs::Registry &Reg, const std::string &Prefix,
                    const std::string &Suffix) {
  uint64_t N = 0;
  Reg.forEachCounter([&](const std::string &Name, const obs::Counter &C) {
    if (Name.rfind(Prefix, 0) == 0 && Name.size() >= Suffix.size() &&
        Name.compare(Name.size() - Suffix.size(), Suffix.size(), Suffix) == 0)
      N += C.value();
  });
  return N;
}

} // namespace

int runServe(const Options &Opts, Result &R) {
  std::unique_ptr<Tab> T;
  std::vector<std::unique_ptr<Client>> Clients;
  bool SetupOk = true;
  auto Teardown = [&] {
    if (!T)
      return true;
    for (auto &C : Clients)
      C->close();
    bool Drained = false;
    T->Srv->shutdown([&Drained] { Drained = true; });
    T->Env.loop().run();
    return Drained;
  };
  auto Reset = [&] {
    Teardown();
    Clients.clear();
    T.reset();
  };
  timedSetups(R, Reset, [&] {
    T = std::make_unique<Tab>(Opts.Seed, Opts.Trace);
    SetupOk = T->Srv->start();
    for (size_t I = 0; I < NumClients; ++I) {
      Clients.push_back(std::make_unique<Client>(*T, I, Opts.Seed));
      Clients.back()->connect();
    }
    size_t Pending = NumClients;
    for (auto &C : Clients) {
      auto Left = std::make_shared<size_t>(WarmRequests);
      C->OnReply = [&, Left](uint64_t, bool Ok) {
        SetupOk = SetupOk && Ok;
        if (--*Left)
          return true;
        --Pending;
        return false;
      };
    }
    // Drive the loop only while work is pending: an idle run() would jump
    // the virtual clock to the idle sweep and reap the clients.
    while (!std::all_of(Clients.begin(), Clients.end(),
                        [](auto &C) { return C->Connected || C->Stopped; }))
      T->Env.loop().runOne();
    for (auto &C : Clients)
      if (C->Connected)
        C->sendNext();
      else
        SetupOk = false;
    while (Pending && T->Env.loop().runOne()) {
    }
    SetupOk = SetupOk && Pending == 0;
  });
  for (auto &C : Clients)
    C->Stopped = false;
  // The clients check replies against Tab::Files; the served tree keeps
  // its own copy.
  if (Opts.CorruptReference)
    T->Files[0][0] ^= 1;

  obs::Registry &Reg = T->Env.metrics();
  uint64_t Events0 = Reg.counter("loop.events_run").value();
  uint64_t Resumptions0 = counterSum(Reg, "suspend", ".resumptions");
  uint64_t Spawned0 = T->Procs->spawned();

  OpLog Log(RssAtRequests);
  uint64_t Start = 0, Deadline = 0;
  uint64_t FirstKVirtualNs = 0, Virtual0 = 0;
  // Trace windows: [0] untraced, [1] traced.
  uint64_t WinNs[2] = {0, 0}, WinOps[2] = {0, 0};
  uint64_t WinStart = 0, WinCount = 0, BlockStart = 0;
  bool WinTraced = false;
  tracer().On = false;
  for (auto &C : Clients) {
    C->OnReply = [&](uint64_t Ns, bool Ok) {
      Log.op(Ns, Ok);
      ++WinCount;
      if (Log.Attempted == 1000)
        FirstKVirtualNs = T->Env.clock().nowNs() - Virtual0;
      uint64_t Now = nowNs();
      if (Log.Attempted % BlockRequests == 0) {
        // The clients overlap, so a block's time base is wall time.
        Log.busy(Now - BlockStart);
        Log.endBlock();
        BlockStart = Now;
      }
      if (Opts.Trace && Now - WinStart >= TraceWindowNs) {
        WinNs[WinTraced] += Now - WinStart;
        WinOps[WinTraced] += WinCount;
        WinStart = Now;
        WinCount = 0;
        WinTraced = !WinTraced;
        tracer().On = WinTraced;
      }
      return Now < Deadline;
    };
  }
  Virtual0 = T->Env.clock().nowNs();
  Start = WinStart = BlockStart = nowNs();
  Deadline = Start + static_cast<uint64_t>(Opts.Seconds * 1e9);
  for (auto &C : Clients)
    if (C->Connected)
      C->sendNext();
  while (!std::all_of(Clients.begin(), Clients.end(),
                      [](auto &C) { return C->Stopped; }) &&
         T->Env.loop().runOne()) {
  }
  uint64_t End = nowNs();
  tracer().On = false;
  Log.busy(End - BlockStart);

  // Drain: every response delivered, every spawned process reaped.
  bool Drained = Teardown();
  R.Correct = SetupOk && Drained && T->Procs->zombies() == 0 &&
              Log.Failed == 0 &&
              std::all_of(Clients.begin(), Clients.end(),
                          [](auto &C) { return C->Connected; });
  R.detail("refused", static_cast<double>(T->Srv->stats().Refused));

  if (!Opts.Trace) {
    reportOps(R, Log, 99.9);
    return 0;
  }
  R.Attempted += Log.Attempted;
  R.Failed += Log.Failed;
  double Ops = static_cast<double>(std::max<uint64_t>(Log.Attempted, 1));
  R.metric("server.file_us", median(T->Times.File) / 1e3, "us");
  R.metric("server.stat_us", median(T->Times.Stat) / 1e3, "us");
  R.metric("server.spawn_us", median(T->Times.Spawn) / 1e3, "us");
  R.metric("server.refused", static_cast<double>(T->Srv->stats().Refused),
           "count");
  R.metric("proc.spawned",
           static_cast<double>(T->Procs->spawned() - Spawned0), "count");
  R.metric("kernel.events_per_op",
           static_cast<double>(Reg.counter("loop.events_run").value() -
                               Events0) /
               Ops,
           "count");
  R.metric("suspend.resumptions_per_op",
           static_cast<double>(counterSum(Reg, "suspend", ".resumptions") -
                               Resumptions0) /
               Ops,
           "count");
  uint64_t Retained = 0;
  Reg.forEachHistogram([&Retained](const std::string &, const obs::Histogram &H) {
    Retained += H.samples().size();
  });
  R.metric("obs.retained_samples", static_cast<double>(Retained), "count");
  R.metric("browser.virtual_ms", static_cast<double>(FirstKVirtualNs) / 1e6,
           "count");
  // Units of 1000 requests; no layer spans, so no self-time closure.
  double UnitNs[2] = {static_cast<double>(WinNs[0]),
                      static_cast<double>(WinNs[1])};
  double Units[2] = {static_cast<double>(WinOps[0]) / 1000,
                     static_cast<double>(WinOps[1]) / 1000};
  reportTraceOverhead(R, UnitNs, Units, "ms per 1000 requests", false);
  return 0;
}

} // namespace perfbench
