//===- doppio/obs/registry.cpp --------------------------------------------==//

#include "doppio/obs/registry.h"

using namespace doppio;
using namespace doppio::obs;

Counter &Registry::counter(const std::string &Name) {
  return Counters[Name];
}

Gauge &Registry::gauge(const std::string &Name) { return Gauges[Name]; }

Histogram &Registry::histogram(const std::string &Name) {
  return Histograms[Name];
}

std::string Registry::claimPrefix(const std::string &Base) {
  unsigned &N = Prefixes[Base];
  ++N;
  return N == 1 ? Base : Base + std::to_string(N);
}

void Registry::forEachCounter(
    const std::function<void(const std::string &, const Counter &)> &Fn)
    const {
  for (const auto &[Name, C] : Counters)
    Fn(Name, C);
}

void Registry::forEachGauge(
    const std::function<void(const std::string &, const Gauge &)> &Fn) const {
  for (const auto &[Name, G] : Gauges)
    Fn(Name, G);
}

void Registry::forEachHistogram(
    const std::function<void(const std::string &, const Histogram &)> &Fn)
    const {
  for (const auto &[Name, H] : Histograms)
    Fn(Name, H);
}

void Registry::resetAll() {
  for (auto &[Name, C] : Counters)
    C.reset();
  for (auto &[Name, G] : Gauges)
    G.reset();
  for (auto &[Name, H] : Histograms)
    H.reset();
  Spans_.reset();
}
