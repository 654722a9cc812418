//===- doppio/server/stats.h - doppiod counters -------------------*- C++ -*-==//
//
// Part of the Doppio reproduction. See README.md.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The counter block a doppiod server exposes for benchmarks: connection
/// accounting (accepted/refused/active), byte counters, request counters,
/// and the p50/p99 service time on the virtual clock that the fig7 harness
/// reports as tail latency.
///
/// Server::stats() assembles it from the server's registry cells
/// (`server.*`) plus the socket's live refusal count, which is why this
/// view survives where the loop, kernel, fs and balancer expose their
/// cells directly. The percentiles are read from the `server.service_ns`
/// histogram, within its stated error bound (DESIGN.md §13); the struct
/// is fixed-size however many requests were served.
///
//===----------------------------------------------------------------------===//

#ifndef DOPPIO_DOPPIO_SERVER_STATS_H
#define DOPPIO_DOPPIO_SERVER_STATS_H

#include <cstdint>

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

  /// Virtual-clock service time (arrival of the full request frame to
  /// response send): how many completed requests were timed, and their
  /// p50/p99 from the server.service_ns histogram.
  uint64_t ServiceCount = 0;
  uint64_t ServiceP50Ns = 0;
  uint64_t ServiceP99Ns = 0;
};

} // namespace server
} // namespace rt
} // namespace doppio

#endif // DOPPIO_DOPPIO_SERVER_STATS_H
