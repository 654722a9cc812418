//===- doppio/obs/exposition.cpp ------------------------------------------==//

#include "doppio/obs/exposition.h"

#include <cctype>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>

using namespace doppio;
using namespace doppio::obs;

namespace {

/// Finite Prometheus `le` bounds per histogram: 1us * 2^i for i < 26.
constexpr unsigned ExpositionBounds = 26;

/// Mangles a dotted instrument name into the Prometheus alphabet.
std::string promName(const std::string &Name) {
  std::string Out = "doppio_";
  for (char C : Name)
    Out += (std::isalnum(static_cast<unsigned char>(C)) || C == '_')
               ? C
               : '_';
  return Out;
}

void appendf(std::string &Out, const char *Fmt, ...)
    __attribute__((format(printf, 2, 3)));

void appendf(std::string &Out, const char *Fmt, ...) {
  char Buf[512];
  va_list Ap;
  va_start(Ap, Fmt);
  vsnprintf(Buf, sizeof(Buf), Fmt, Ap);
  va_end(Ap);
  Out += Buf;
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20) {
      char Buf[8];
      snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
      continue;
    }
    Out += C;
  }
  return Out;
}

} // namespace

std::string obs::renderPrometheus(const Registry &R) {
  std::string Out;
  R.forEachCounter([&](const std::string &Name, const Counter &C) {
    std::string P = promName(Name);
    appendf(Out, "# TYPE %s counter\n%s %" PRIu64 "\n", P.c_str(), P.c_str(),
            C.value());
  });
  R.forEachGauge([&](const std::string &Name, const Gauge &G) {
    std::string P = promName(Name);
    appendf(Out, "# TYPE %s gauge\n%s %" PRId64 "\n", P.c_str(), P.c_str(),
            G.value());
  });
  R.forEachHistogram([&](const std::string &Name, const Histogram &H) {
    std::string P = promName(Name);
    appendf(Out, "# TYPE %s histogram\n", P.c_str());
    // Exposition bounds 1us * 2^i (~1us .. ~34s), then +Inf. Each bound
    // is an exact bucket edge, so one pass yields exact cumulative counts.
    uint64_t Cum = 0;
    size_t B = 0;
    for (unsigned I = 0; I < ExpositionBounds; ++I) {
      uint64_t Le = 1000ull << I;
      for (size_t Last = Histogram::bucketOf(Le); B <= Last; ++B)
        Cum += H.buckets()[B];
      appendf(Out, "%s_bucket{le=\"%" PRIu64 "\"} %" PRIu64 "\n", P.c_str(),
              Le, Cum);
    }
    appendf(Out, "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", P.c_str(),
            H.count());
    appendf(Out, "%s_sum %" PRIu64 "\n%s_count %" PRIu64 "\n", P.c_str(),
            H.sumNs(), P.c_str(), H.count());
  });
  const SpanStore &S = R.spans();
  appendf(Out,
          "# TYPE doppio_spans_started counter\ndoppio_spans_started %" PRIu64
          "\n# TYPE doppio_spans_finished counter\ndoppio_spans_finished "
          "%" PRIu64 "\n",
          S.started(), S.finished());
  return Out;
}

std::string obs::renderJson(const Registry &R) {
  std::string Out = "{\n  \"counters\": {";
  bool First = true;
  R.forEachCounter([&](const std::string &Name, const Counter &C) {
    appendf(Out, "%s\n    \"%s\": %" PRIu64, First ? "" : ",",
            jsonEscape(Name).c_str(), C.value());
    First = false;
  });
  Out += "\n  },\n  \"gauges\": {";
  First = true;
  R.forEachGauge([&](const std::string &Name, const Gauge &G) {
    appendf(Out, "%s\n    \"%s\": %" PRId64, First ? "" : ",",
            jsonEscape(Name).c_str(), G.value());
    First = false;
  });
  Out += "\n  },\n  \"histograms\": {";
  First = true;
  R.forEachHistogram([&](const std::string &Name, const Histogram &H) {
    appendf(Out,
            "%s\n    \"%s\": {\"count\": %" PRIu64 ", \"sum_ns\": %" PRIu64
            ", \"max_ns\": %" PRIu64 ", \"p50_ns\": %" PRIu64
            ", \"p95_ns\": %" PRIu64 ", \"p99_ns\": %" PRIu64 "}",
            First ? "" : ",", jsonEscape(Name).c_str(), H.count(), H.sumNs(),
            H.maxNs(), H.percentile(50.0), H.percentile(95.0),
            H.percentile(99.0));
    First = false;
  });
  const SpanStore &S = R.spans();
  appendf(Out,
          "\n  },\n  \"spans\": {\n    \"started\": %" PRIu64
          ", \"finished\": %" PRIu64 ", \"open\": %zu,\n    \"recent\": [",
          S.started(), S.finished(), S.openCount());
  First = true;
  for (const Span &Sp : S.recent()) {
    appendf(Out,
            "%s\n      {\"id\": %" PRIu64 ", \"parent\": %" PRIu64
            ", \"name\": \"%s\", \"start_ns\": %" PRIu64 ", \"end_ns\": %" PRIu64
            ", \"queue_delay_ns\": %" PRIu64 "}",
            First ? "" : ",", Sp.Id, Sp.Parent, jsonEscape(Sp.Name).c_str(),
            Sp.StartNs, Sp.EndNs, Sp.QueueDelayNs);
    First = false;
  }
  Out += "\n    ]\n  }\n}\n";
  return Out;
}

std::string obs::renderTop(const Registry &R, size_t MaxSpans) {
  std::string Out;
  Out += "-- counters ------------------------------------------------\n";
  R.forEachCounter([&](const std::string &Name, const Counter &C) {
    appendf(Out, "%-44s %14" PRIu64 "\n", Name.c_str(), C.value());
  });
  Out += "-- gauges --------------------------------------------------\n";
  R.forEachGauge([&](const std::string &Name, const Gauge &G) {
    appendf(Out, "%-44s %14" PRId64 "\n", Name.c_str(), G.value());
  });
  Out += "-- histograms (us) --------------- count     p50     p95     "
         "p99     max\n";
  R.forEachHistogram([&](const std::string &Name, const Histogram &H) {
    appendf(Out, "%-32s %9" PRIu64 " %7.1f %7.1f %7.1f %7.1f\n", Name.c_str(),
            H.count(), static_cast<double>(H.percentile(50.0)) / 1e3,
            static_cast<double>(H.percentile(95.0)) / 1e3,
            static_cast<double>(H.percentile(99.0)) / 1e3,
            static_cast<double>(H.maxNs()) / 1e3);
  });
  const SpanStore &S = R.spans();
  appendf(Out,
          "-- spans: %" PRIu64 " started, %" PRIu64 " finished, %zu open\n",
          S.started(), S.finished(), S.openCount());
  const std::deque<Span> &Recent = S.recent();
  size_t Skip = Recent.size() > MaxSpans ? Recent.size() - MaxSpans : 0;
  Out += "   id  parent  name                          us    queue-us\n";
  for (size_t I = Skip; I < Recent.size(); ++I) {
    const Span &Sp = Recent[I];
    appendf(Out, "%5" PRIu64 " %7" PRIu64 "  %-26s %7.1f %9.1f\n", Sp.Id,
            Sp.Parent, Sp.Name.c_str(),
            static_cast<double>(Sp.durationNs()) / 1e3,
            static_cast<double>(Sp.QueueDelayNs) / 1e3);
  }
  return Out;
}
