//===- bench/fig7_server.cpp - Figure 7: doppiod server throughput -------===//
//
// Extension beyond the paper: §5.3 stops at client-side sockets (the
// server half of every connection lives in an external websockify
// process), so the paper has no server-throughput figure. With doppiod
// (src/doppio/server/) the runtime hosts real listen/accept sockets, and
// this harness measures them: 100 concurrent clients each issuing 100
// sequential file requests against the Doppio FS-backed file handler, per
// browser profile.
//
// Reported per browser: requests/s on the virtual clock, client-side p50
// and p99 round-trip latency, and the server's own service-time tails.
// After the run the server drains gracefully; the harness asserts that
// every request completed and ServerStats.Active reached zero.
//
//===----------------------------------------------------------------------===//

#include "bench_util.h"

#include "doppio/obs/registry.h"
#include "doppio/server/server.h"
#include "doppio/server/handlers.h"
#include "workloads/traffic.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

using namespace doppio;
using namespace doppio::bench;
using namespace doppio::rt;
using namespace doppio::workloads;

namespace {

constexpr size_t NumClients = 100;
constexpr size_t RequestsPerClient = 100;
constexpr size_t NumFiles = 32;

struct Fig7Result {
  TrafficReport Client;
  server::ServerStats Stats;
  bool Drained = false;
  // Registry-sourced observability figures (src/doppio/obs/): end-to-end
  // span accounting and kernel dispatch volume for the same run.
  uint64_t SpansFinished = 0;
  uint64_t SpanQueueDelayNsMax = 0;
  uint64_t KernelEventsRun = 0;
  // Process subsystem (src/doppio/proc/): piped multi-process workloads
  // run alongside the client load, plus one spawn-handler round trip.
  PipelineReport Pipes;
  uint64_t ZombiesAfterDrain = 0;
  bool SpawnRoundTripOk = false;
};

/// One full load test in one browser: seed the FS, serve it, hammer it
/// with NumClients concurrent clients, drain, report.
Fig7Result runServerLoad(const browser::Profile &P) {
  browser::BrowserEnv Env(P);
  Process Proc;
  auto Root = std::make_unique<fs::InMemoryBackend>(Env);
  std::vector<std::vector<uint8_t>> Paths;
  for (size_t I = 0; I < NumFiles; ++I) {
    std::string Path = "/srv/f" + std::to_string(I) + ".bin";
    // 64 B .. ~8 KB, deterministic contents.
    std::vector<uint8_t> Contents(64 + 251 * I,
                                  static_cast<uint8_t>('a' + I % 26));
    bool Seeded = Root->seedFile(Path, std::move(Contents));
    assert(Seeded);
    (void)Seeded;
    Paths.emplace_back(Path.begin(), Path.end());
  }
  fs::FileSystem Fs(Env, Proc, std::move(Root));

  server::Server::Config Cfg;
  Cfg.Port = 7000;
  Cfg.Backlog = 64;
  Cfg.MaxConnections = 128;
  // Generous: the slowest profile (safari) sees ~266ms p99 round trips
  // under this load, and an idle-reap races the next request otherwise.
  Cfg.IdleTimeoutNs = browser::msToNs(2000);
  proc::ProcessTable Procs(Env, Fs);
  proc::ProgramRegistry Progs;
  proc::installCorePrograms(Progs);

  server::Server Srv(Env, Cfg);
  server::installDefaultHandlers(Srv.router(), Fs, &Env.metrics(), &Procs,
                                 &Progs);
  bool Started = Srv.start();
  assert(Started);
  (void)Started;

  TrafficConfig TCfg;
  TCfg.Port = Cfg.Port;
  TCfg.Clients = NumClients;
  TCfg.RequestsPerClient = RequestsPerClient;
  TCfg.Handler = "file";
  TCfg.Bodies = std::move(Paths);
  TrafficGen Gen(Env, TCfg);
  PipelineScenario Pipes(Env, Procs);
  server::FrameClient SpawnClient(Env.net());

  Fig7Result Out;
  // The client load, the piped process workloads, and one spawn-handler
  // round trip all share the run; drain once the three finish.
  auto Outstanding = std::make_shared<int>(3);
  std::function<void()> MaybeDrain = [&Srv, &Out, Outstanding] {
    if (--*Outstanding == 0)
      Srv.shutdown([&Out] { Out.Drained = true; });
  };
  Gen.start(MaybeDrain);
  Pipes.start(MaybeDrain);
  SpawnClient.connect(Cfg.Port, [&](bool Ok) {
    if (!Ok) {
      MaybeDrain();
      return;
    }
    std::string Cmd = "echo fig7";
    SpawnClient.request(
        "spawn", std::vector<uint8_t>(Cmd.begin(), Cmd.end()),
        [&](server::frame::Response R) {
          Out.SpawnRoundTripOk =
              R.S == server::frame::Status::Ok &&
              std::string(R.Body.begin(), R.Body.end()) == "fig7\n";
          SpawnClient.close();
          MaybeDrain();
        });
  });
  Env.loop().run();

  Out.Client = Gen.report();
  Out.Stats = Srv.stats();
  Out.Pipes = Pipes.report();
  Out.ZombiesAfterDrain = Procs.zombies();
  obs::Registry &Reg = Env.metrics();
  Out.SpansFinished = Reg.spans().finished();
  for (const obs::Span &Sp : Reg.spans().recent())
    Out.SpanQueueDelayNsMax =
        std::max(Out.SpanQueueDelayNsMax, Sp.QueueDelayNs);
  Out.KernelEventsRun = Reg.counter("loop.events_run").value();
  return Out;
}

void printFigure7() {
  printf("==========================================================\n");
  printf("Figure 7 (extension): doppiod in-runtime server throughput\n");
  printf("%zu clients x %zu sequential 'file' requests over SimNet,\n",
         NumClients, RequestsPerClient);
  printf("FS-backed file handler, graceful drain at end of load\n");
  printf("(the paper's §5.3 has no server half to measure; cf. Browsix)\n");
  printf("==========================================================\n");
  printf("%-10s %10s %9s %9s %9s %7s %7s\n", "browser", "req/s", "p50us",
         "p99us", "srv-p99", "refuse", "drain");
  bool AllOk = true;
  BenchJson Json("fig7_server");
  for (const browser::Profile &P : browser::allProfiles()) {
    Fig7Result R = runServerLoad(P);
    uint64_t Expected = NumClients * RequestsPerClient;
    bool Ok = R.Drained && R.Stats.Active == 0 &&
              R.Client.Completed + R.Client.Errors +
                      R.Client.ConnectFailures * RequestsPerClient ==
                  Expected &&
              R.Client.Errors == 0 && R.Pipes.AllExitsZero &&
              R.Pipes.OutputsMatch && R.ZombiesAfterDrain == 0 &&
              R.SpawnRoundTripOk;
    AllOk = AllOk && Ok;
    printf("%-10s %10.0f %9.1f %9.1f %9.1f %7llu %7s\n", P.Name.c_str(),
           R.Client.requestsPerSecond(),
           static_cast<double>(R.Client.p50Ns()) / 1e3,
           static_cast<double>(R.Client.p99Ns()) / 1e3,
           static_cast<double>(R.Stats.ServiceP99Ns) / 1e3,
           static_cast<unsigned long long>(R.Stats.Refused),
           Ok ? "clean" : "FAIL");
    Json.row(P.Name)
        .metric("req_per_s", R.Client.requestsPerSecond())
        .metric("p50_us", static_cast<double>(R.Client.p50Ns()) / 1e3)
        .metric("p99_us", static_cast<double>(R.Client.p99Ns()) / 1e3)
        .metric("srv_p99_us", static_cast<double>(R.Stats.ServiceP99Ns) / 1e3)
        .metric("refused", static_cast<double>(R.Stats.Refused))
        .metric("drain_clean", Ok ? 1 : 0)
        .metric("spans_finished", static_cast<double>(R.SpansFinished))
        .metric("span_queue_delay_us_max",
                static_cast<double>(R.SpanQueueDelayNsMax) / 1e3)
        .metric("loop_events_run", static_cast<double>(R.KernelEventsRun))
        .metric("processes_spawned",
                static_cast<double>(R.Pipes.ProcessesSpawned))
        .metric("pipe_bytes", static_cast<double>(R.Pipes.PipeBytes))
        .metric("pipe_writer_suspends",
                static_cast<double>(R.Pipes.PipeWriterSuspends))
        .metric("zombies_after_drain",
                static_cast<double>(R.ZombiesAfterDrain))
        .metric("spawn_roundtrip_ok", R.SpawnRoundTripOk ? 1 : 0);
  }
  Json.write();
  printf("(req/s is virtual time; srv-p99 is server-side service time;\n"
         " refuse counts backlog overflows absorbed by client retry-free\n"
         " accounting; drain=clean means every response was delivered and\n"
         " ServerStats.Active hit zero after graceful shutdown.)\n\n");
  if (!AllOk) {
    fprintf(stderr, "fig7: acceptance check failed\n");
    exit(1);
  }
}

} // namespace

int main() {
  printFigure7();
  return 0;
}
