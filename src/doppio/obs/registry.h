//===- doppio/obs/registry.h - The metrics registry --------------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One registry per simulated browser tab (the tab *is* the paper's
/// process), owned by the event loop and shared by every subsystem above
/// it: kernel lanes, the loop's own event accounting, the fs frontend,
/// doppiod, the suspender, and the green-thread pool all allocate their
/// instruments here and keep nothing of their own. Producers hand readers
/// the cell pointers they resolved (EventLoop::cells(), Kernel::cells(),
/// FileSystem::cells(), Balancer::cells()); only server::ServerStats and
/// storage::CacheStats remain as assembled structs, because they merge
/// cells with live state.
///
/// Naming scheme (see DESIGN.md §13): dot-separated
/// `<subsystem>.<object>.<metric>`, ns-valued metrics suffixed `_ns`
/// (`_ns_total` / `_ns_max` for sums and high-water marks). Instruments
/// are created on first use and live as long as the registry; producers
/// resolve them once at construction, so the hot path is a pointer
/// increment, exactly what the private struct fields cost.
///
/// Instance prefixes: a producer that can plausibly exist twice on one
/// loop (a Server, a FileSystem) claims its prefix — the first claimant
/// gets the clean name ("server"), later ones get "server2", "server3" —
/// so concurrent instances never share cells and each instance's handles
/// stay exact.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_OBS_REGISTRY_H
#define DOPPIO_DOPPIO_OBS_REGISTRY_H

#include "browser/virtual_clock.h"
#include "doppio/obs/metrics.h"
#include "doppio/obs/span.h"

#include <functional>
#include <map>
#include <memory>
#include <string>

namespace doppio {
namespace obs {

/// The process-wide instrument table plus the span store.
class Registry {
public:
  explicit Registry(browser::VirtualClock &Clock)
      : Clock(Clock), Spans_(Clock) {}

  Registry(const Registry &) = delete;
  Registry &operator=(const Registry &) = delete;

  /// Returns the counter named \p Name, creating it on first use. The
  /// reference is stable for the registry's lifetime.
  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  Histogram &histogram(const std::string &Name);

  /// True if an instrument of the given kind exists under \p Name.
  bool hasCounter(const std::string &Name) const { return Counters.count(Name); }
  bool hasGauge(const std::string &Name) const { return Gauges.count(Name); }
  bool hasHistogram(const std::string &Name) const {
    return Histograms.count(Name);
  }

  /// Claims an instance prefix: "server" for the first claimant, then
  /// "server2", "server3", ... so two live producers never share cells.
  std::string claimPrefix(const std::string &Base);

  /// Deterministic (name-sorted) enumeration, for expositions and tools.
  void forEachCounter(
      const std::function<void(const std::string &, const Counter &)> &Fn)
      const;
  void forEachGauge(
      const std::function<void(const std::string &, const Gauge &)> &Fn) const;
  void forEachHistogram(
      const std::function<void(const std::string &, const Histogram &)> &Fn)
      const;

  SpanStore &spans() { return Spans_; }
  const SpanStore &spans() const { return Spans_; }

  browser::VirtualClock &clock() { return Clock; }

  size_t instrumentCount() const {
    return Counters.size() + Gauges.size() + Histograms.size();
  }

  /// Zeroes every instrument (names and references survive) and clears
  /// span history.
  void resetAll();

private:
  browser::VirtualClock &Clock;
  SpanStore Spans_;
  // std::map: stable references via unique_ptr-free node storage and
  // name-sorted iteration for deterministic expositions.
  std::map<std::string, Counter> Counters;
  std::map<std::string, Gauge> Gauges;
  std::map<std::string, Histogram> Histograms;
  std::map<std::string, unsigned> Prefixes;
};

} // namespace obs
} // namespace doppio

#endif // DOPPIO_DOPPIO_OBS_REGISTRY_H
