//===- workloads/traffic.h - multi-client doppiod traffic gen -----*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic multi-client load generator for doppiod. Each simulated
/// client connects to the server, issues its requests sequentially (next
/// request only after the previous response), and records per-request
/// round-trip latency on the virtual clock into one fixed-size histogram.
/// Clients spawn with a fixed inter-arrival spacing so connection setup,
/// backlog pressure, and idle reaping all exercise realistically inside
/// one event-loop run.
///
/// PipelineScenario is the process-subsystem counterpart: it seeds fstrace
/// logs into the Doppio fs and runs `cat | grep | wc` pipelines of spawned
/// guest processes over them, reporting spawn/pipe/zombie statistics off
/// the proc metric cells.
///
/// Used by bench/fig7_server.cpp and the server test suite.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_WORKLOADS_TRAFFIC_H
#define DOPPIO_WORKLOADS_TRAFFIC_H

#include "browser/env.h"
#include "doppio/obs/metrics.h"
#include "doppio/proc/programs.h"
#include "doppio/server/client.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace doppio {
namespace workloads {

struct TrafficConfig {
  uint16_t Port = 7000;
  size_t Clients = 10;
  size_t RequestsPerClient = 10;
  /// Handler name for every request ("echo", "file", ...).
  std::string Handler = "echo";
  /// Request bodies, assigned round-robin across the request stream.
  /// Empty means every request carries an empty body.
  std::vector<std::vector<uint8_t>> Bodies;
  /// Virtual-time gap between successive client spawns.
  uint64_t SpawnSpacingNs = browser::usToNs(50);
};

struct TrafficReport {
  uint64_t Completed = 0;       // Responses with Status::Ok.
  uint64_t Errors = 0;          // Responses with any other status.
  uint64_t ConnectFailures = 0; // Connects refused by the fabric.
  uint64_t BytesReceived = 0;
  /// Per-request round trip. Fixed footprint whatever the request count;
  /// percentiles are within 2^-6 of exact (DESIGN.md §13).
  obs::Histogram Latencies;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;

  double requestsPerSecond() const {
    uint64_t Span = EndNs > StartNs ? EndNs - StartNs : 0;
    if (Span == 0)
      return 0.0;
    return (Completed + Errors) * 1e9 / static_cast<double>(Span);
  }
  uint64_t p50Ns() const { return Latencies.percentile(50.0); }
  uint64_t p99Ns() const { return Latencies.percentile(99.0); }
};

/// Drives TrafficConfig::Clients concurrent FrameClients against a server
/// on the same event loop. start() schedules the work; the report is
/// complete once every client finished (run the loop) and \p Done fires.
class TrafficGen {
public:
  TrafficGen(browser::BrowserEnv &Env, TrafficConfig Cfg);
  ~TrafficGen();

  TrafficGen(const TrafficGen &) = delete;
  TrafficGen &operator=(const TrafficGen &) = delete;

  /// Kicks off the client spawns. \p Done fires once every client has
  /// either completed its requests or failed.
  void start(std::function<void()> Done = nullptr);

  bool finished() const { return Remaining == 0 && Started; }
  const TrafficReport &report() const { return Report; }

private:
  struct Client;

  void spawn(size_t Index);
  void nextRequest(Client &C);
  void clientDone(Client &C);

  browser::BrowserEnv &Env;
  TrafficConfig Cfg;
  TrafficReport Report;
  std::vector<std::unique_ptr<Client>> Fleet;
  size_t Remaining = 0;
  bool Started = false;
  std::function<void()> OnDone;
};

struct PipelineConfig {
  /// Concurrent three-stage pipelines (cat fstrace | grep open | wc).
  size_t Pipelines = 4;
  /// Lines per seeded fstrace log (open/read/close records).
  size_t TraceLines = 60;
  /// Pipe capacity in bytes. Small relative to the trace so writers block
  /// on full pipes and the kernel has to resume them.
  size_t PipeCapacity = 256;
};

struct PipelineReport {
  uint64_t ProcessesSpawned = 0;
  uint64_t PipeBytes = 0;
  uint64_t PipeWriterSuspends = 0;
  uint64_t ZombiesAfterDrain = 0;
  /// Every stage of every pipeline exited 0.
  bool AllExitsZero = false;
  /// Every wc stage printed the expected "<lines> <bytes>" for its trace.
  bool OutputsMatch = false;
};

/// Runs PipelineConfig::Pipelines piped multi-process workloads on a
/// ProcessTable. start() seeds /data/fstrace-<i>.log files through the
/// table's fs, spawns the pipelines, and parks waiters on every stage;
/// the report is complete once every stage has been reaped (run the loop)
/// and \p Done fires.
class PipelineScenario {
public:
  PipelineScenario(browser::BrowserEnv &Env, rt::proc::ProcessTable &Procs,
                   PipelineConfig Cfg = PipelineConfig());

  PipelineScenario(const PipelineScenario &) = delete;
  PipelineScenario &operator=(const PipelineScenario &) = delete;

  void start(std::function<void()> Done = nullptr);

  bool finished() const { return Started && StagesRemaining == 0; }
  const PipelineReport &report() const { return Report; }

private:
  std::string tracePath(size_t Index) const;
  std::string traceBody(size_t Index) const;
  /// The wc output grep's "open" lines of trace \p Index reduce to.
  std::string expectedWc(size_t Index) const;
  void launch(size_t Index);
  void noteStageDone();

  browser::BrowserEnv &Env;
  rt::proc::ProcessTable &Procs;
  PipelineConfig Cfg;
  PipelineReport Report;
  rt::proc::ProgramRegistry Registry;
  size_t StagesRemaining = 0;
  bool Started = false;
  bool ExitsOk = true;
  bool WcOk = true;
  uint64_t BaseSpawned = 0;
  uint64_t BasePipeBytes = 0;
  uint64_t BaseWriterSuspends = 0;
  std::function<void()> OnDone;
};

} // namespace workloads
} // namespace doppio

#endif // DOPPIO_WORKLOADS_TRAFFIC_H
