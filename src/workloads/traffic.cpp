//===- workloads/traffic.cpp ----------------------------------------------==//

#include "workloads/traffic.h"

using namespace doppio;
using namespace doppio::workloads;
namespace server = doppio::rt::server;

struct TrafficGen::Client {
  explicit Client(browser::SimNet &Net) : Net(Net) {}
  server::FrameClient Net;
  size_t Sent = 0;
  size_t Received = 0;
  bool Done = false;
};

TrafficGen::TrafficGen(browser::BrowserEnv &Env, TrafficConfig Cfg)
    : Env(Env), Cfg(std::move(Cfg)) {}

TrafficGen::~TrafficGen() {
  // Sever the fleet's connections before the callbacks' target dies.
  for (auto &C : Fleet)
    C->Net.close();
}

void TrafficGen::start(std::function<void()> Done) {
  Started = true;
  OnDone = std::move(Done);
  Remaining = Cfg.Clients;
  Report.StartNs = Env.clock().nowNs();
  if (Cfg.Clients == 0) {
    Report.EndNs = Report.StartNs;
    if (OnDone)
      OnDone();
    return;
  }
  Fleet.reserve(Cfg.Clients);
  for (size_t I = 0; I < Cfg.Clients; ++I)
    Fleet.push_back(std::make_unique<Client>(Env.net()));
  for (size_t I = 0; I < Cfg.Clients; ++I) {
    uint64_t Delay = Cfg.SpawnSpacingNs * I;
    if (Delay == 0)
      spawn(I);
    else
      // Client arrival pacing is a scheduled timer, not an I/O completion.
      Env.loop().postAfter(kernel::Lane::Timer, [this, I] { spawn(I); },
                           Delay);
  }
}

void TrafficGen::spawn(size_t Index) {
  Client &C = *Fleet[Index];
  C.Net.setOnClose([this, &C] {
    // Server-initiated close (idle reap, shutdown) mid-run: whatever was
    // pending already failed through FrameClient; stop the client.
    if (!C.Done && C.Received >= C.Sent)
      clientDone(C);
  });
  C.Net.connect(Cfg.Port, [this, &C](bool Ok) {
    if (!Ok) {
      ++Report.ConnectFailures;
      clientDone(C);
      return;
    }
    nextRequest(C);
  });
}

void TrafficGen::nextRequest(Client &C) {
  if (C.Sent >= Cfg.RequestsPerClient || !C.Net.isOpen()) {
    clientDone(C);
    return;
  }
  std::vector<uint8_t> Body;
  if (!Cfg.Bodies.empty())
    Body = Cfg.Bodies[C.Sent % Cfg.Bodies.size()];
  ++C.Sent;
  uint64_t SentNs = Env.clock().nowNs();
  // Root span of the whole round trip: current while the request frame
  // goes out, so the SimNet delivery and the server's request span chain
  // under it — end-to-end client -> server -> fs attribution.
  obs::SpanStore &Spans = Env.metrics().spans();
  obs::SpanId Span = Spans.begin("client.req");
  obs::SpanStore::Scope Scope(Spans, Span);
  C.Net.request(Cfg.Handler, std::move(Body),
                [this, &C, SentNs, Span](server::frame::Response R) {
                  Env.metrics().spans().end(Span);
                  ++C.Received;
                  Report.Latencies.record(Env.clock().nowNs() - SentNs);
                  if (R.S == server::frame::Status::Ok)
                    ++Report.Completed;
                  else
                    ++Report.Errors;
                  if (C.Done)
                    return; // Failure path already retired this client.
                  nextRequest(C);
                });
}

void TrafficGen::clientDone(Client &C) {
  if (C.Done)
    return;
  C.Done = true;
  Report.BytesReceived += C.Net.bytesReceived();
  C.Net.close();
  if (Remaining > 0)
    --Remaining;
  if (Remaining == 0) {
    Report.EndNs = Env.clock().nowNs();
    if (OnDone) {
      auto Done = std::move(OnDone);
      OnDone = nullptr;
      Done();
    }
  }
}

//===----------------------------------------------------------------------===//
// PipelineScenario
//===----------------------------------------------------------------------===//

namespace proc = doppio::rt::proc;

PipelineScenario::PipelineScenario(browser::BrowserEnv &Env,
                                   proc::ProcessTable &Procs,
                                   PipelineConfig Cfg)
    : Env(Env), Procs(Procs), Cfg(std::move(Cfg)) {
  proc::installCorePrograms(Registry);
}

std::string PipelineScenario::tracePath(size_t Index) const {
  return "/data/fstrace-" + std::to_string(Index) + ".log";
}

std::string PipelineScenario::traceBody(size_t Index) const {
  // Synthetic fstrace records in the shape minicompile's fs activity
  // takes: open/read/close triplets over per-pipeline file names.
  std::string Body;
  for (size_t L = 0; L < Cfg.TraceLines; ++L) {
    std::string File =
        "/data/p" + std::to_string(Index) + "/f" + std::to_string(L / 3);
    switch (L % 3) {
    case 0:
      Body += "open " + File + "\n";
      break;
    case 1:
      Body += "read " + File + " 4096\n";
      break;
    default:
      Body += "close " + File + "\n";
      break;
    }
  }
  return Body;
}

std::string PipelineScenario::expectedWc(size_t Index) const {
  std::string Body = traceBody(Index);
  uint64_t Lines = 0;
  uint64_t Bytes = 0;
  size_t Start = 0;
  while (Start < Body.size()) {
    size_t End = Body.find('\n', Start);
    std::string Line = Body.substr(Start, End - Start);
    if (Line.find("open") != std::string::npos) {
      ++Lines;
      Bytes += Line.size() + 1;
    }
    Start = End + 1;
  }
  return std::to_string(Lines) + " " + std::to_string(Bytes) + "\n";
}

void PipelineScenario::start(std::function<void()> Done) {
  Started = true;
  OnDone = std::move(Done);
  StagesRemaining = Cfg.Pipelines * 3;
  BaseSpawned = Procs.spawned();
  BasePipeBytes = Procs.pipeBytes();
  BaseWriterSuspends = Procs.pipeWriterSuspends();
  if (Cfg.Pipelines == 0) {
    StagesRemaining = 1;
    noteStageDone();
    return;
  }
  Procs.fs().mkdirp("/data", [this](std::optional<rt::ApiError>) {
    for (size_t I = 0; I < Cfg.Pipelines; ++I) {
      std::string Body = traceBody(I);
      Procs.fs().writeFile(
          tracePath(I), std::vector<uint8_t>(Body.begin(), Body.end()),
          [this, I](std::optional<rt::ApiError> Err) {
            if (Err) {
              // Treat a failed seed as three failed stages.
              ExitsOk = false;
              for (int S = 0; S < 3; ++S)
                noteStageDone();
              return;
            }
            launch(I);
          });
    }
  });
}

void PipelineScenario::launch(size_t Index) {
  std::vector<proc::ProcessTable::SpawnSpec> Stages(3);
  Stages[0].Name = "cat";
  Stages[0].Prog = Registry.create({"cat", tracePath(Index)});
  Stages[1].Name = "grep";
  Stages[1].Prog = Registry.create({"grep", "open"});
  Stages[2].Name = "wc";
  Stages[2].Prog = Registry.create({"wc"});
  std::vector<proc::Pid> Pids =
      Procs.spawnPipeline(std::move(Stages), Cfg.PipeCapacity);
  proc::Pid Last = Pids.back();
  for (proc::Pid P : Pids) {
    Procs.waitpid(
        1, P, [this, P, Last, Index](rt::ErrorOr<proc::WaitResult> W) {
          if (!W.ok() || W->ExitCode != 0)
            ExitsOk = false;
          if (W.ok() && P == Last) {
            proc::Process *Wc = Procs.find(P);
            if (!Wc || Wc->state().capturedStdout() != expectedWc(Index))
              WcOk = false;
          }
          noteStageDone();
        });
  }
}

void PipelineScenario::noteStageDone() {
  if (StagesRemaining > 0)
    --StagesRemaining;
  if (StagesRemaining > 0)
    return;
  Report.ProcessesSpawned = Procs.spawned() - BaseSpawned;
  Report.PipeBytes = Procs.pipeBytes() - BasePipeBytes;
  Report.PipeWriterSuspends =
      Procs.pipeWriterSuspends() - BaseWriterSuspends;
  Report.ZombiesAfterDrain = Procs.zombies();
  Report.AllExitsZero = ExitsOk;
  Report.OutputsMatch = WcOk;
  if (OnDone) {
    auto Done = std::move(OnDone);
    OnDone = nullptr;
    Done();
  }
}
