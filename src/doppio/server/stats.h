//===- doppio/server/stats.h - doppiod counters -------------------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The counter block a doppiod server exposes for benchmarks: connection
/// accounting (accepted/refused/active), byte counters, request counters,
/// and per-request service-time samples on the virtual clock from which the
/// fig7 harness reports p50/p99 tail latency.
///
/// Server::stats() assembles it from the server's registry cells
/// (`server.*`) plus the socket's live refusal count, which is why this
/// view survives where the loop, kernel, fs and balancer expose their
/// cells directly. The percentile math lives in obs::percentileNs, the
/// one copy the whole repo shares.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_SERVER_STATS_H
#define DOPPIO_DOPPIO_SERVER_STATS_H

#include "doppio/obs/metrics.h"

#include <cstdint>
#include <vector>

namespace doppio {
namespace rt {
namespace server {

/// Aggregate statistics of one Server.
struct ServerStats {
  // Connections.
  uint64_t Accepted = 0;
  /// Refused at the accept path: backlog overflow, or connects queued
  /// behind a socket that closed. (Connects arriving after shutdown are
  /// refused by the fabric before reaching the server.)
  uint64_t Refused = 0;
  uint64_t Active = 0;
  uint64_t IdleClosed = 0;

  // Traffic.
  uint64_t BytesIn = 0;
  uint64_t BytesOut = 0;

  // Requests.
  uint64_t RequestsServed = 0; // Completed with Status::Ok.
  uint64_t RequestErrors = 0;  // Completed with any other status.

  /// Virtual-clock service time of every completed request (arrival of the
  /// full request frame to response send).
  std::vector<uint64_t> ServiceNs;

  uint64_t p50Ns() const { return obs::percentileNs(ServiceNs, 50.0); }
  uint64_t p99Ns() const { return obs::percentileNs(ServiceNs, 99.0); }
};

} // namespace server
} // namespace rt
} // namespace doppio

#endif // DOPPIO_DOPPIO_SERVER_STATS_H
