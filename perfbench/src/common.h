//===- perfbench/src/common.h - Shared benchmark plumbing ---------*- C++ -*-==//
//
// Options, the result record every workload fills, latency statistics,
// seeded content generation and host clocks. Every time this benchmark
// reports is host time from std::chrono::steady_clock; the virtual clock
// only ever appears as the browser.virtual_ms count.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool Trace = false;
  /// Directory holding the committed jvm reference outputs.
  std::string ExpectedDir = "perfbench/expected";
  /// Sensitivity self-check: host microseconds added to every slow-store
  /// put by the benchmark's own decorator (0 = no perturbation).
  uint64_t SlowPutDelayUs = 0;
  /// Sensitivity self-check: jvm::ExecProfile spec for every launch
  /// (empty = default JvmOptions).
  std::string ExecProfile;
  /// Self-test: flip one byte of the workload's reference outputs (every
  /// jvm program's, or file 0's contents) so ok_ratio must drop.
  bool CorruptReference = false;
  /// Self-test: fs-write's storage decorator acknowledges every sync
  /// without forwarding it, so the durability check must fail.
  bool DropSync = false;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What one run reports. Details are printed on their own line before
/// the result object (the result line has a fixed set of keys).
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  /// False when an output did not match its reference.
  bool Correct = true;
  std::vector<Metric> Metrics;
  std::vector<std::pair<std::string, std::string>> Details;

  void metric(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  void detail(const std::string &Key, const std::string &Value) {
    Details.emplace_back(Key, Value);
  }
  void detail(const std::string &Key, double Value);
};

using Clock = std::chrono::steady_clock;

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// Median of \p Xs (by copy).
double median(std::vector<double> Xs);



/// splitmix64: the benchmark's one PRNG for inputs.
struct Rng {
  uint64_t State;
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return next() % N; }
};

/// Per-op latencies and busy time, grouped into blocks of fixed work (a
/// jvm cycle, 16 fs-read passes, two fs-write rounds, 40,000 serve
/// requests), about 0.25 to 1 s each. On a shared host the program slows
/// by up to 1.7x in phases of seconds to minutes that differ from one
/// vCPU to the next, so a block's time is its fixed work plus what the
/// host's neighbours cost it. Each block runs on the next CPU in turn
/// (nextCpu), and ops_per_s and iqm_ms are read over the fastest
/// 1/QuietShare of the run's complete blocks. Each block keeps a uniform
/// reservoir of at most BlockSample latencies, so the benchmark's own
/// memory does not grow with the program's throughput.
class OpLog {
public:
  static constexpr size_t BlockSample = 4096;
  /// Timing metrics use the fastest 1/QuietShare of complete blocks.
  static constexpr size_t QuietShare = 4;

  /// peak_rss_mb is read when the \p RssAtOps-th op completes, so it
  /// measures a fixed amount of work rather than whatever the host's
  /// speed let the run reach (retained histogram samples grow per op).
  explicit OpLog(uint64_t RssAtOps = UINT64_MAX) : RssAtOps(RssAtOps) {}

  /// Records one op in the open block. A failed op counts as missing
  /// every latency limit.
  void op(uint64_t LatencyNs, bool Ok);
  /// Adds busy time, the ops_per_s time base, to the open block.
  void busy(uint64_t Ns) {
    BusyNs += Ns;
    Cur.BusyNs += Ns;
  }
  /// Closes the open block and moves to the next CPU. Ops of a block
  /// left open at the end of the run count toward ok_ratio but not toward
  /// the timing metrics.
  void endBlock();
  /// Ops found wrong after the run (fs-write's durability check).
  void lateFailures(uint64_t N) { Failed += N; }

  uint64_t BusyNs = 0;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;

private:
  friend void reportOps(Result &R, OpLog &Log, double TailPct,
                        bool SameOpsPerBlock);
  struct Block {
    uint64_t BusyNs = 0;
    uint64_t Ops = 0;
    std::vector<float> Sample;
  };
  std::vector<Block> Blocks;
  Block Cur;
  Rng Pick{0x5a3c1e};
  uint64_t RssAtOps;
  double RssMb = 0;
};

/// Appends ops_per_s, iqm_ms (the mean latency of the middle half of ops),
/// tail_ms (latency percentile \p TailPct), ok_ratio and peak_rss_mb.
/// ops_per_s and iqm_ms cover the quiet blocks (OpLog) and ok_ratio every
/// op. tail_ms covers the quiet blocks when \p SameOpsPerBlock (every
/// block runs the same ops, as jvm's cycles do), and every op otherwise.
void reportOps(Result &R, OpLog &Log, double TailPct,
               bool SameOpsPerBlock = false);

/// Moves this thread to the next CPU, in turn, of those the process
/// started with, once rotateCpus(true) has been called.
void nextCpu();
/// Turns nextCpu on for untraced runs. Traced runs stay put, so that
/// their alternating traced and untraced units share CPUs.
void rotateCpus(bool On);

/// Peak resident set of this process, MB.
double peakRssMb();

/// Seeded pseudo-random file contents, distinct per (seed, file, round),
/// so content-addressed dedup cannot collapse the working set.
std::vector<uint8_t> contentFor(uint64_t Seed, uint64_t File, uint64_t Round,
                                size_t Size);

/// Set-ups per run; setup_s is their median.
constexpr int SetupRuns = 5;

/// Runs \p Setup SetupRuns times, each on the next CPU in turn, and
/// reports setup_s as the median.
/// \p Setup rebuilds the workload's state from scratch each time, after
/// an untimed \p Teardown of the previous build; the last build is the
/// one measured.
template <typename TeardownFn, typename SetupFn>
void timedSetups(Result &R, TeardownFn Teardown, SetupFn Setup) {
  std::vector<double> Secs;
  for (int I = 0; I < SetupRuns; ++I) {
    Teardown();
    nextCpu();
    uint64_t T0 = nowNs();
    Setup();
    Secs.push_back(static_cast<double>(nowNs() - T0) / 1e9);
  }
  R.metric("setup_s", median(Secs), "s");
}

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
