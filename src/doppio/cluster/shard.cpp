//===- doppio/cluster/shard.cpp -------------------------------------------==//

#include "doppio/cluster/shard.h"

#include "browser/wire.h"
#include "doppio/backends/in_memory.h"
#include "doppio/cluster/control.h"
#include "doppio/server/handlers.h"

#include <cassert>
#include <charconv>

using namespace doppio;
using namespace doppio::cluster;
using namespace doppio::rt;
namespace wire = doppio::browser::wire;

//===----------------------------------------------------------------------===//
// ShardSnapshot codec
//===----------------------------------------------------------------------===//

std::vector<uint8_t> ShardSnapshot::encode() const {
  std::vector<uint8_t> Out;
  wire::putU32(Out, ShardId);
  wire::putU64(Out, Accepted);
  wire::putU64(Out, Refused);
  wire::putU64(Out, Active);
  wire::putU64(Out, RequestsServed);
  wire::putU64(Out, RequestErrors);
  wire::putU64(Out, BytesIn);
  wire::putU64(Out, BytesOut);
  wire::putU64(Out, ServiceP50Ns);
  wire::putU64(Out, ServiceP99Ns);
  wire::putU64(Out, ProcsSpawned);
  wire::putU64(Out, Zombies);
  wire::putU64(Out, VirtualNowNs);
  return Out;
}

std::optional<ShardSnapshot>
ShardSnapshot::decode(const std::vector<uint8_t> &B) {
  if (B.size() != 4 + 12 * 8)
    return std::nullopt;
  ShardSnapshot S;
  const uint8_t *P = B.data();
  S.ShardId = wire::getU32(P);
  P += 4;
  uint64_t *Fields[] = {&S.Accepted,       &S.Refused,      &S.Active,
                        &S.RequestsServed, &S.RequestErrors, &S.BytesIn,
                        &S.BytesOut,       &S.ServiceP50Ns, &S.ServiceP99Ns,
                        &S.ProcsSpawned,   &S.Zombies,      &S.VirtualNowNs};
  for (uint64_t *F : Fields) {
    *F = wire::getU64(P);
    P += 8;
  }
  return S;
}

//===----------------------------------------------------------------------===//
// Shard
//===----------------------------------------------------------------------===//

/// The CPU-bound cluster load: body "<spin_us> <path>" charges spin_us of
/// engine compute on this shard's clock, then serves the file. Service
/// time is dominated by the spin, so requests serialize on the shard's
/// single virtual thread — the contended resource N shards multiply.
static server::Router::Handler makeWorkHandler(browser::BrowserEnv &Env,
                                               fs::FileSystem &Fs) {
  return [&Env, &Fs](const server::frame::Request &Req,
                     server::Router::RespondFn Respond) {
    std::string Body(Req.Body.begin(), Req.Body.end());
    size_t Sp = Body.find(' ');
    uint64_t SpinUs = 0;
    if (Sp != std::string::npos) {
      auto [Ptr, Ec] =
          std::from_chars(Body.data(), Body.data() + Sp, SpinUs);
      if (Ec != std::errc() || Ptr != Body.data() + Sp)
        Sp = std::string::npos;
    }
    if (Sp == std::string::npos) {
      std::string E = "work: want '<spin_us> <path>'";
      Respond(server::frame::Status::BadRequest,
              std::vector<uint8_t>(E.begin(), E.end()));
      return;
    }
    Env.chargeCompute(browser::usToNs(SpinUs));
    Fs.readFile(Body.substr(Sp + 1),
                [Respond = std::move(Respond)](
                    ErrorOr<std::vector<uint8_t>> R) {
                  if (!R.ok()) {
                    std::string E = R.error().message();
                    Respond(server::frame::Status::Error,
                            std::vector<uint8_t>(E.begin(), E.end()));
                    return;
                  }
                  Respond(server::frame::Status::Ok, std::move(*R));
                });
  };
}

Shard::Shard(const browser::Profile &P, Fabric &Fab, Config Cfg)
    : Fab(Fab), Cfg(Cfg), Env(P) {
  Tab = Fab.attach(Env);

  // Same corpus shape as bench/fig7_server: /srv/f<i>.bin, 64 B..~8 KB,
  // deterministic contents, replicated on every shard (a content-
  // replicated fleet: any shard can serve any path).
  auto Root = std::make_unique<fs::InMemoryBackend>(Env);
  for (size_t I = 0; I < Cfg.SeedFiles; ++I) {
    bool Seeded = Root->seedFile(
        "/srv/f" + std::to_string(I) + ".bin",
        std::vector<uint8_t>(64 + 251 * I,
                             static_cast<uint8_t>('a' + I % 26)));
    assert(Seeded);
    (void)Seeded;
  }
  Fs = std::make_unique<fs::FileSystem>(Env, FsProc, std::move(Root));
  Procs = std::make_unique<proc::ProcessTable>(Env, *Fs);
  proc::installCorePrograms(Progs);

  server::Server::Config SCfg;
  SCfg.Port = Cfg.Port;
  SCfg.Backlog = Cfg.Backlog;
  SCfg.MaxConnections = Cfg.MaxConnections;
  SCfg.IdleTimeoutNs = Cfg.IdleTimeoutNs;
  Srv = std::make_unique<server::Server>(Env, SCfg);
  server::installDefaultHandlers(Srv->router(), *Fs, &Env.metrics(),
                                 Procs.get(), &Progs);
  Srv->router().handle("work", makeWorkHandler(Env, *Fs));
  bool Started = Srv->start();
  assert(Started && "shard port taken inside a fresh tab");
  (void)Started;

  startWorkers();

  if (Cfg.Setup)
    Cfg.Setup(*this);
}

Shard::~Shard() = default;

void Shard::startWorkers() {
  // Per-shard proc-subsystem workers: echo | wc pipelines whose known
  // output ("1 8\n" for "shard<id>\n"... length varies) is checked on
  // reap. They run interleaved with serving, exercising pids, pipes, and
  // waitpid inside every shard.
  for (size_t W = 0; W < Cfg.WorkerPipelines; ++W) {
    std::string Text = "shard" + std::to_string(Cfg.Id) + "w" +
                       std::to_string(W);
    std::string Expect =
        "1 " + std::to_string(Text.size() + 1) + "\n"; // echo adds '\n'.
    std::vector<proc::ProcessTable::SpawnSpec> Stages(2);
    Stages[0].Name = "echo";
    Stages[0].Prog = Progs.create({"echo", Text});
    Stages[1].Name = "wc";
    Stages[1].Prog = Progs.create({"wc"});
    std::vector<proc::Pid> Pids = Procs->spawnPipeline(std::move(Stages));
    proc::Pid Last = Pids.back();
    for (proc::Pid P : Pids)
      Procs->waitpid(1, P, [this, P, Last,
                            Expect](ErrorOr<proc::WaitResult> R) {
        if (!R.ok() || R->ExitCode != 0 || P != Last)
          return;
        proc::Process *Proc = Procs->find(Last);
        if (Proc && Proc->state().capturedStdout() == Expect)
          ++WorkersOk;
      });
  }
}

ShardSnapshot Shard::snapshot() {
  // Walking the metric cells and encoding the snapshot is work this tab
  // does; charging it also guarantees VirtualNowNs is strictly positive
  // in every published snapshot, even from an otherwise idle shard.
  Env.chargeCompute(browser::usToNs(2));
  ShardSnapshot S;
  S.ShardId = Cfg.Id;
  server::ServerStats St = Srv->stats();
  S.Accepted = St.Accepted;
  S.Refused = St.Refused;
  S.Active = St.Active;
  S.RequestsServed = St.RequestsServed;
  S.RequestErrors = St.RequestErrors;
  S.BytesIn = St.BytesIn;
  S.BytesOut = St.BytesOut;
  S.ServiceP50Ns = St.ServiceP50Ns;
  S.ServiceP99Ns = St.ServiceP99Ns;
  S.ProcsSpawned = Procs->spawned();
  S.Zombies = Procs->zombies();
  S.VirtualNowNs = Env.clock().nowNs();
  return S;
}

void Shard::pushStats(TabId Dst) {
  // Control mail is framed [kind][payload]; a raw snapshot would decode
  // as an unknown kind and be dropped at the balancer.
  Fab.sendControl(Tab, Dst,
                  control::encode(control::Kind::Snapshot,
                                  snapshot().encode()));
}
