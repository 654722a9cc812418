//===- doppio/obs/metrics.h - Registry instrument types ----------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three instrument kinds every stats producer in the system shares:
/// monotonically increasing counters, settable gauges (with a high-water
/// helper), and fixed-memory log-linear latency histograms. "Not So Fast"
/// (PAPERS.md) argues credible perf claims need uniform instrumentation,
/// and these are the uniform pieces: every producer's counters are cells
/// of these three kinds.
///
/// Everything here is single-threaded over the virtual clock, like the
/// rest of the simulated browser: plain integers, no atomics. Instruments
/// never charge virtual time, so adding one can never move a figure, and
/// none of them grows with the number of events it has seen.
///
/// The nearest-rank percentile over an explicit sample vector lives here
/// too — the one copy, shared by the traffic generator's client-side
/// report and the tests that check Histogram's error bound against it.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_OBS_METRICS_H
#define DOPPIO_DOPPIO_OBS_METRICS_H

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace doppio {
namespace obs {

/// Nearest-rank percentile over \p Samples (0 when empty). \p Pct in
/// [0, 100]. This is the single exact percentile implementation in the
/// repo; Histogram::percentile uses the same rank rule over its buckets.
uint64_t percentileNs(const std::vector<uint64_t> &Samples, double Pct);

/// A monotonically increasing count.
class Counter {
public:
  void inc(uint64_t N = 1) { V += N; }
  uint64_t value() const { return V; }
  void reset() { V = 0; }

private:
  uint64_t V = 0;
};

/// A value that can move both ways, with a high-water-mark helper for the
/// "max observed" statistics the legacy structs carry.
class Gauge {
public:
  void set(int64_t X) { V = X; }
  void add(int64_t N) { V += N; }
  void sub(int64_t N) { V -= N; }
  /// Raises the gauge to \p X if it is below it (max-tracking gauges such
  /// as loop.event_ns_max).
  void noteMax(int64_t X) { V = std::max(V, X); }
  int64_t value() const { return V; }
  void reset() { V = 0; }

private:
  int64_t V = 0;
};

/// A latency histogram over one fixed-size log-linear (HDR-style) bucket
/// array (DESIGN.md §13).
///
/// Values 0..2^SubBits each get a bucket of their own. Above that, every
/// power-of-two octave is split into 2^SubBits equal sub-buckets. Buckets
/// are upper-inclusive (a value V is indexed on V-1), so each exposition
/// bound 1us * 2^i is an exact bucket edge and the Prometheus `le` counts
/// are exact. percentile() returns the upper edge of the bucket holding
/// the nearest-rank sample, clamped to maxNs(); for the exact nearest-rank
/// value E it satisfies E <= result <= E * (1 + 2^-SubBits), and it is
/// exact for E <= 2^SubBits.
///
/// The storage is the inline bucket array: sizeof(Histogram) is the whole
/// footprint, whatever the count.
class Histogram {
public:
  /// log2 of the sub-buckets per octave. 6 is the smallest value that
  /// makes every 1us * 2^i an exact bucket edge (1000 = 125 * 2^3, and
  /// 125 < 2^7); it bounds the relative error at 2^-6 = 1.5625%.
  static constexpr unsigned SubBits = 6;
  static constexpr uint64_t SubBuckets = uint64_t(1) << SubBits;
  /// Buckets 0..SubBuckets hold one value each; the octaves
  /// [2^m, 2^(m+1)) of V-1 for m in [SubBits, 64) hold SubBuckets each.
  static constexpr size_t NumBuckets = 1 + (65 - SubBits) * SubBuckets;

  /// Index of the bucket that holds \p ValueNs. O(1).
  static size_t bucketOf(uint64_t ValueNs) {
    if (ValueNs <= SubBuckets)
      return ValueNs;
    uint64_t X = ValueNs - 1;
    unsigned Shift = std::bit_width(X) - 1 - SubBits;
    return 1 + (X >> Shift) + Shift * SubBuckets;
  }

  /// Largest value bucket \p I holds (saturated at UINT64_MAX).
  static uint64_t bucketUpperNs(size_t I);

  void record(uint64_t ValueNs) {
    ++Count;
    SumNs += ValueNs;
    MaxNs = std::max(MaxNs, ValueNs);
    ++Buckets[bucketOf(ValueNs)];
  }

  uint64_t count() const { return Count; }
  uint64_t sumNs() const { return SumNs; }
  uint64_t maxNs() const { return MaxNs; }

  /// Nearest-rank percentile, within the bound stated above. \p Pct in
  /// [0, 100]; 0 when empty.
  uint64_t percentile(double Pct) const;

  /// Per-bucket counts, indexed by bucketOf().
  const std::array<uint64_t, NumBuckets> &buckets() const { return Buckets; }

  /// Always empty: no sample is retained. It survives only because
  /// perfbench's `obs.retained_samples` metric sums its size (and so now
  /// reads 0); a change to the benchmark can drop both.
  const std::vector<uint64_t> &samples() const;

  void reset();

private:
  uint64_t Count = 0;
  uint64_t SumNs = 0;
  uint64_t MaxNs = 0;
  std::array<uint64_t, NumBuckets> Buckets{};
};

} // namespace obs
} // namespace doppio

#endif // DOPPIO_DOPPIO_OBS_METRICS_H
