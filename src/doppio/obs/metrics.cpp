//===- doppio/obs/metrics.cpp ---------------------------------------------==//

#include "doppio/obs/metrics.h"

#include <cstdint>

using namespace doppio;
using namespace doppio::obs;

uint64_t obs::percentileNs(const std::vector<uint64_t> &Samples, double Pct) {
  if (Samples.empty())
    return 0;
  std::vector<uint64_t> Sorted = Samples;
  size_t Rank = static_cast<size_t>(
      (Pct / 100.0) * static_cast<double>(Sorted.size() - 1) + 0.5);
  if (Rank >= Sorted.size())
    Rank = Sorted.size() - 1;
  std::nth_element(Sorted.begin(), Sorted.begin() + Rank, Sorted.end());
  return Sorted[Rank];
}

uint64_t Histogram::bucketUpperNs(size_t I) {
  if (I <= SubBuckets)
    return I;
  // Invert bucketOf: I - 1 = (X >> Shift) + Shift * SubBuckets, where the
  // mantissa X >> Shift lies in [SubBuckets, 2 * SubBuckets).
  uint64_t J = I - 1;
  unsigned Shift = static_cast<unsigned>(J / SubBuckets) - 1;
  uint64_t Mant = J - Shift * SubBuckets;
  // Largest V - 1 in the bucket; the top bucket's edge saturates.
  uint64_t LastX = (Mant << Shift) + ((uint64_t(1) << Shift) - 1);
  return LastX == UINT64_MAX ? UINT64_MAX : LastX + 1;
}

uint64_t Histogram::percentile(double Pct) const {
  if (Count == 0)
    return 0;
  uint64_t Rank = static_cast<uint64_t>(
      (Pct / 100.0) * static_cast<double>(Count - 1) + 0.5);
  if (Rank >= Count)
    Rank = Count - 1;
  uint64_t Seen = 0;
  for (size_t B = 0; B < NumBuckets; ++B) {
    Seen += Buckets[B];
    if (Seen > Rank)
      return std::min(bucketUpperNs(B), MaxNs);
  }
  return MaxNs;
}

const std::vector<uint64_t> &Histogram::samples() const {
  static const std::vector<uint64_t> None;
  return None;
}

void Histogram::reset() {
  Count = 0;
  SumNs = 0;
  MaxNs = 0;
  Buckets.fill(0);
}
