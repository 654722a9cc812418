//===- perfbench/src/common.cpp -------------------------------------------==//

#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sched.h>
#include <sys/resource.h>

namespace perfbench {

void Result::detail(const std::string &Key, double Value) {
  char Buf[64];
  snprintf(Buf, sizeof(Buf), "%.6g", Value);
  detail(Key, std::string(Buf));
}

double median(std::vector<double> Xs) {
  if (Xs.empty())
    return 0;
  std::sort(Xs.begin(), Xs.end());
  size_t N = Xs.size();
  return N % 2 ? Xs[N / 2] : (Xs[N / 2 - 1] + Xs[N / 2]) / 2;
}

void OpLog::op(uint64_t LatencyNs, bool Ok) {
  ++Attempted;
  Failed += !Ok;
  if (Attempted == RssAtOps)
    RssMb = peakRssMb();
  float V = Ok ? static_cast<float>(LatencyNs)
               : std::numeric_limits<float>::max();
  ++Cur.Ops;
  if (Cur.Sample.size() < BlockSample) {
    Cur.Sample.push_back(V);
    return;
  }
  uint64_t Slot = Pick.below(Cur.Ops);
  if (Slot < BlockSample)
    Cur.Sample[Slot] = V;
}

void OpLog::endBlock() {
  Blocks.push_back(std::move(Cur));
  Cur = Block();
  nextCpu();
}

namespace {
bool CpuRotation = false;
} // namespace

void rotateCpus(bool On) { CpuRotation = On; }

void nextCpu() {
  // The CPUs this process may use, read before the first move narrows
  // the affinity mask to one.
  static const std::vector<int> Cpus = [] {
    std::vector<int> Out;
    cpu_set_t Allowed;
    CPU_ZERO(&Allowed);
    if (sched_getaffinity(0, sizeof(Allowed), &Allowed) == 0)
      for (int C = 0; C < CPU_SETSIZE; ++C)
        if (CPU_ISSET(C, &Allowed))
          Out.push_back(C);
    return Out;
  }();
  static size_t Turn = 0;
  if (!CpuRotation || Cpus.size() < 2)
    return;
  cpu_set_t One;
  CPU_ZERO(&One);
  CPU_SET(Cpus[Turn++ % Cpus.size()], &One);
  sched_setaffinity(0, sizeof(One), &One);
}

namespace {

/// Nearest-rank percentile of an ascending sample.
float percentile(const std::vector<float> &Sorted, double Pct) {
  if (Sorted.empty())
    return 0;
  size_t Rank = static_cast<size_t>(
      std::ceil(Pct / 100.0 * static_cast<double>(Sorted.size())));
  Rank = std::clamp<size_t>(Rank, 1, Sorted.size());
  return Sorted[Rank - 1];
}

/// Mean of the middle half of an ascending sample (p25 to p75).
double interquartileMean(const std::vector<float> &Sorted) {
  size_t Lo = Sorted.size() / 4, Hi = Sorted.size() - Lo;
  if (Hi <= Lo)
    return 0;
  double Sum = 0;
  for (size_t I = Lo; I < Hi; ++I)
    Sum += Sorted[I];
  return Sum / static_cast<double>(Hi - Lo);
}

} // namespace

void reportOps(Result &R, OpLog &Log, double TailPct, bool SameOpsPerBlock) {
  // A run too short for one complete block is timed over what it did.
  if (Log.Blocks.empty() && Log.Cur.Ops)
    Log.endBlock();
  std::vector<OpLog::Block> &Blocks = Log.Blocks;
  std::vector<float> All;
  for (const OpLog::Block &B : Blocks)
    All.insert(All.end(), B.Sample.begin(), B.Sample.end());
  std::sort(All.begin(), All.end());

  std::sort(Blocks.begin(), Blocks.end(),
            [](const OpLog::Block &A, const OpLog::Block &B) {
              return A.BusyNs < B.BusyNs;
            });
  size_t Quiet = std::min(
      Blocks.size(), std::max<size_t>(1, Blocks.size() / OpLog::QuietShare));
  uint64_t QuietOps = 0, QuietNs = 0;
  std::vector<float> S;
  for (size_t I = 0; I < Quiet; ++I) {
    QuietOps += Blocks[I].Ops;
    QuietNs += Blocks[I].BusyNs;
    S.insert(S.end(), Blocks[I].Sample.begin(), Blocks[I].Sample.end());
  }
  std::sort(S.begin(), S.end());

  // Where blocks hold varying numbers of slow ops, a block holding more is
  // itself slower, so the quiet blocks would select against the tail; the
  // tail then covers every block. Where every block runs the same ops,
  // each quiet block holds the whole tail too.
  const std::vector<float> &TailSample = SameOpsPerBlock ? S : All;
  float Tail = percentile(TailSample, TailPct);
  size_t TailBeyond = static_cast<size_t>(
      TailSample.end() -
      std::upper_bound(TailSample.begin(), TailSample.end(), Tail));

  uint64_t Ok = Log.Attempted - Log.Failed;
  double OkRatio = Log.Attempted ? static_cast<double>(Ok) /
                                       static_cast<double>(Log.Attempted)
                                 : 0;
  R.Attempted += Log.Attempted;
  R.Failed += Log.Failed;
  // Throughput of verified-correct ops: the quiet blocks' op rate scaled
  // by the run's share of correct ops (fs-write's durability check finds
  // its failures after the run, outside any block).
  R.metric("ops_per_s",
           QuietNs ? static_cast<double>(QuietOps) * 1e9 /
                         static_cast<double>(QuietNs) * OkRatio
                   : 0,
           "1/s");
  R.metric("iqm_ms", interquartileMean(S) / 1e6, "ms");
  R.metric("tail_ms", Tail / 1e6, "ms");
  R.metric("ok_ratio", OkRatio, "ratio");
  bool RssAtMark = Log.RssMb > 0;
  R.metric("peak_rss_mb", RssAtMark ? Log.RssMb : peakRssMb(), "MB");
  R.detail("quiet_blocks", static_cast<double>(Quiet));
  R.detail("blocks", static_cast<double>(Blocks.size()));
  R.detail("p50_ms_quiet", percentile(S, 50) / 1e6);
  R.detail("ops_per_s_all_blocks",
           Log.BusyNs ? static_cast<double>(Ok) * 1e9 /
                            static_cast<double>(Log.BusyNs)
                      : 0);
  R.detail("tail_percentile", TailPct);
  R.detail("tail_samples_beyond", static_cast<double>(TailBeyond));
  R.detail("tail_samples", static_cast<double>(TailSample.size()));
  R.detail("peak_rss_at_ops", static_cast<double>(
                                  RssAtMark ? Log.RssAtOps : Log.Attempted));
}

double peakRssMb() {
  struct rusage U;
  std::memset(&U, 0, sizeof(U));
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

std::vector<uint8_t> contentFor(uint64_t Seed, uint64_t File, uint64_t Round,
                                size_t Size) {
  auto Mix = [](uint64_t X) { return Rng(X).next(); };
  Rng G(Mix(Mix(Mix(Seed) + File) + Round));
  std::vector<uint8_t> Out(Size);
  size_t I = 0;
  for (; I + 8 <= Size; I += 8) {
    uint64_t W = G.next();
    std::memcpy(Out.data() + I, &W, 8);
  }
  uint64_t W = G.next();
  for (; I < Size; ++I, W >>= 8)
    Out[I] = static_cast<uint8_t>(W);
  return Out;
}

} // namespace perfbench
