//===- tests/doppio/obs_test.cpp ------------------------------------------==//
//
// Tests for the observability subsystem (src/doppio/obs/): instrument
// determinism on the virtual clock, registry naming and enumeration,
// causal span propagation through kernel hops, the exposition formats,
// and the doppiod `metrics` handler round-trip over the frame codec.
//
//===----------------------------------------------------------------------===//

#include "doppio/backends/in_memory.h"
#include "doppio/fs.h"
#include "doppio/obs/exposition.h"
#include "doppio/obs/registry.h"
#include "doppio/server/client.h"
#include "doppio/server/handlers.h"
#include "doppio/server/server.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>
#include <type_traits>

using namespace doppio;
using namespace doppio::rt;
using namespace doppio::browser;

namespace {

std::vector<uint8_t> bytesOf(const std::string &S) {
  return std::vector<uint8_t>(S.begin(), S.end());
}

//===----------------------------------------------------------------------===//
// Instruments
//===----------------------------------------------------------------------===//

TEST(Instruments, CounterAndGaugeBasics) {
  obs::Counter C;
  EXPECT_EQ(C.value(), 0u);
  C.inc();
  C.inc(41);
  EXPECT_EQ(C.value(), 42u);
  C.reset();
  EXPECT_EQ(C.value(), 0u);

  obs::Gauge G;
  G.set(7);
  G.add(5);
  G.sub(2);
  EXPECT_EQ(G.value(), 10);
  G.noteMax(3); // Below: no change.
  EXPECT_EQ(G.value(), 10);
  G.noteMax(25);
  EXPECT_EQ(G.value(), 25);
}

/// True when \p Got lies within the stated bound of the exact value \p E:
/// E <= Got <= E * (1 + 2^-SubBits).
bool withinBound(uint64_t Got, uint64_t E) {
  return E <= Got && Got * obs::Histogram::SubBuckets <=
                         E * (obs::Histogram::SubBuckets + 1);
}

/// A seeded stream whose values are log-uniform over 1ns .. 100s.
std::vector<uint64_t> logUniformStream(uint64_t Seed, size_t N) {
  std::mt19937_64 Rng(Seed);
  std::uniform_real_distribution<double> Exp(0.0, std::log2(1e11));
  std::vector<uint64_t> Out;
  for (size_t I = 0; I < N; ++I)
    Out.push_back(static_cast<uint64_t>(std::exp2(Exp(Rng))));
  return Out;
}

TEST(Instruments, HistogramPercentilesWithinStatedBound) {
  const double Pcts[] = {0, 50, 90, 99, 99.9, 100};
  for (uint64_t Seed : {1, 2, 3, 4}) {
    std::vector<uint64_t> Values = logUniformStream(Seed, 5000);
    obs::Histogram H;
    uint64_t Sum = 0;
    for (uint64_t V : Values) {
      H.record(V);
      Sum += V;
    }
    EXPECT_EQ(H.count(), Values.size());
    EXPECT_EQ(H.sumNs(), Sum);
    EXPECT_EQ(H.maxNs(), *std::max_element(Values.begin(), Values.end()));
    for (double P : Pcts) {
      uint64_t E = obs::percentileNs(Values, P);
      EXPECT_TRUE(withinBound(H.percentile(P), E))
          << "seed " << Seed << " p" << P << ": exact " << E << ", got "
          << H.percentile(P);
    }
  }
  // At or below 2^SubBits every value has a bucket of its own: exact.
  std::mt19937_64 Rng(5);
  std::vector<uint64_t> Small;
  obs::Histogram H;
  for (int I = 0; I < 1000; ++I) {
    Small.push_back(Rng() % (obs::Histogram::SubBuckets + 1));
    H.record(Small.back());
  }
  for (double P : Pcts)
    EXPECT_EQ(H.percentile(P), obs::percentileNs(Small, P)) << "p" << P;
}

TEST(Instruments, HistogramBucketsAreCumulativeAndCoverEverything) {
  obs::Histogram H;
  H.record(0);
  H.record(500);
  H.record(3000);
  H.record(1ull << 40);
  H.record(UINT64_MAX);
  EXPECT_EQ(H.count(), 5u);
  uint64_t Total = 0;
  for (uint64_t B : H.buckets())
    Total += B;
  EXPECT_EQ(Total, 5u); // Buckets are per-bucket counts; nothing dropped.
  EXPECT_EQ(obs::Histogram::bucketOf(UINT64_MAX),
            obs::Histogram::NumBuckets - 1);
  // Upper edges rise strictly and end at UINT64_MAX; every bucket holds
  // its own upper edge and none of the one below.
  for (size_t I = 0; I < obs::Histogram::NumBuckets; ++I) {
    uint64_t Hi = obs::Histogram::bucketUpperNs(I);
    EXPECT_EQ(obs::Histogram::bucketOf(Hi), I);
    if (I > 0) {
      EXPECT_GT(Hi, obs::Histogram::bucketUpperNs(I - 1));
      EXPECT_EQ(obs::Histogram::bucketOf(obs::Histogram::bucketUpperNs(I - 1) +
                                         1),
                I);
    }
  }
  EXPECT_EQ(obs::Histogram::bucketUpperNs(obs::Histogram::NumBuckets - 1),
            UINT64_MAX);
  // Every exposition bound 1us * 2^i is an exact bucket edge.
  for (unsigned I = 0; I < 26; ++I)
    EXPECT_EQ(obs::Histogram::bucketUpperNs(
                  obs::Histogram::bucketOf(1000ull << I)),
              1000ull << I);
  // 3000 lands in a bucket of width 32 whose upper edge is 3008.
  EXPECT_EQ(H.percentile(50.0), 3008u);
  EXPECT_EQ(H.percentile(100.0), UINT64_MAX);
  // The inline bucket array is the whole footprint: nothing is retained.
  EXPECT_TRUE(H.samples().empty());
  static_assert(std::is_trivially_copyable_v<obs::Histogram>);
  static_assert(sizeof(obs::Histogram) ==
                (3 + obs::Histogram::NumBuckets) * sizeof(uint64_t));
  static_assert(sizeof(obs::Histogram) <= 32 * 1024);
  H.reset();
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.percentile(50.0), 0u);
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(Registry, CellsAreCreatedOnFirstUseWithStableReferences) {
  VirtualClock Clock;
  obs::Registry Reg(Clock);
  obs::Counter &A = Reg.counter("x.count");
  A.inc(3);
  EXPECT_TRUE(Reg.hasCounter("x.count"));
  EXPECT_FALSE(Reg.hasCounter("x.other"));
  // Same name, same cell — and creating more cells must not move it.
  for (int I = 0; I < 100; ++I)
    Reg.counter("x.filler" + std::to_string(I));
  EXPECT_EQ(&Reg.counter("x.count"), &A);
  EXPECT_EQ(A.value(), 3u);
  EXPECT_EQ(Reg.instrumentCount(), 101u);
}

TEST(Registry, ClaimPrefixDisambiguatesInstances) {
  VirtualClock Clock;
  obs::Registry Reg(Clock);
  EXPECT_EQ(Reg.claimPrefix("server"), "server");
  EXPECT_EQ(Reg.claimPrefix("server"), "server2");
  EXPECT_EQ(Reg.claimPrefix("server"), "server3");
  EXPECT_EQ(Reg.claimPrefix("fs"), "fs");
}

TEST(Registry, EnumerationIsNameSortedAndDeterministic) {
  VirtualClock Clock;
  obs::Registry Reg(Clock);
  Reg.counter("zeta");
  Reg.counter("alpha");
  Reg.counter("mid");
  std::vector<std::string> Names;
  Reg.forEachCounter(
      [&](const std::string &N, const obs::Counter &) { Names.push_back(N); });
  EXPECT_EQ(Names, (std::vector<std::string>{"alpha", "mid", "zeta"}));
}

TEST(Registry, ResetAllZeroesCellsButKeepsThem) {
  VirtualClock Clock;
  obs::Registry Reg(Clock);
  obs::Counter &C = Reg.counter("c");
  obs::Gauge &G = Reg.gauge("g");
  obs::Histogram &H = Reg.histogram("h");
  C.inc(5);
  G.set(-3);
  H.record(1000);
  Reg.spans().end(Reg.spans().begin("op"));
  Reg.resetAll();
  EXPECT_EQ(C.value(), 0u);
  EXPECT_EQ(G.value(), 0);
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(Reg.spans().finished(), 0u);
  EXPECT_TRUE(Reg.spans().recent().empty());
  EXPECT_EQ(&Reg.counter("c"), &C); // Same cell after reset.
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

TEST(Spans, DeterministicOnVirtualClock) {
  VirtualClock Clock;
  obs::SpanStore S(Clock);
  Clock.chargeNs(100);
  obs::SpanId Id = S.begin("op");
  Clock.chargeNs(250);
  S.end(Id);
  ASSERT_EQ(S.recent().size(), 1u);
  const obs::Span &Sp = S.recent().back();
  EXPECT_EQ(Sp.Name, "op");
  EXPECT_EQ(Sp.StartNs, 100u);
  EXPECT_EQ(Sp.EndNs, 350u);
  EXPECT_EQ(Sp.durationNs(), 250u);
  EXPECT_EQ(Sp.Parent, 0u);
}

TEST(Spans, ScopeNestsAndRestores) {
  VirtualClock Clock;
  obs::SpanStore S(Clock);
  EXPECT_EQ(S.current(), 0u);
  obs::SpanId Outer = S.begin("outer");
  {
    obs::SpanStore::Scope A(S, Outer);
    EXPECT_EQ(S.current(), Outer);
    obs::SpanId Inner = S.begin("inner"); // Parented under Outer.
    {
      obs::SpanStore::Scope B(S, Inner);
      EXPECT_EQ(S.current(), Inner);
    }
    EXPECT_EQ(S.current(), Outer);
    S.end(Inner);
  }
  EXPECT_EQ(S.current(), 0u);
  S.end(Outer);
  ASSERT_EQ(S.recent().size(), 2u);
  EXPECT_EQ(S.recent()[0].Name, "inner");
  EXPECT_EQ(S.recent()[0].Parent, Outer);
}

TEST(Spans, RetentionIsBounded) {
  VirtualClock Clock;
  obs::SpanStore S(Clock, /*Retain=*/4);
  for (int I = 0; I < 10; ++I)
    S.end(S.begin("op" + std::to_string(I)));
  EXPECT_EQ(S.recent().size(), 4u);
  EXPECT_EQ(S.recent().front().Name, "op6"); // Oldest surviving.
  EXPECT_EQ(S.finished(), 10u);              // Totals keep counting.
}

TEST(Spans, IdPropagatesThroughAKernelHop) {
  BrowserEnv Env(chromeProfile());
  obs::SpanStore &Spans = Env.metrics().spans();
  obs::SpanId Root = Spans.begin("root");
  obs::SpanId Child = 0;
  {
    // Root is current while the work is *posted*; the kernel stamps it on
    // the work item, and the loop restores it around the dispatch.
    obs::SpanStore::Scope Scope(Spans, Root);
    Env.loop().post(kernel::Lane::Background, [&] {
      EXPECT_EQ(Spans.current(), Root);
      Child = Spans.begin("child");
      Spans.end(Child);
    });
  }
  EXPECT_EQ(Spans.current(), 0u); // Not current outside the scope...
  Env.loop().run();               // ...yet the hop still carries it.
  Spans.end(Root);
  ASSERT_NE(Child, 0u);
  ASSERT_EQ(Spans.recent().size(), 2u);
  EXPECT_EQ(Spans.recent()[0].Name, "child");
  EXPECT_EQ(Spans.recent()[0].Parent, Root);
}

TEST(Spans, KernelQueueDelayIsAttributedToTheOpenSpan) {
  BrowserEnv Env(chromeProfile());
  obs::SpanStore &Spans = Env.metrics().spans();
  obs::SpanId Root = Spans.begin("root");
  // First event charges 5us of virtual time; the span's event, enqueued
  // at t=0 behind it, therefore waits 5us in the lane.
  Env.loop().post(kernel::Lane::Background,
                  [&] { Env.clock().chargeNs(5000); });
  {
    obs::SpanStore::Scope Scope(Spans, Root);
    Env.loop().post(kernel::Lane::Background, [] {});
  }
  Env.loop().run();
  const obs::Span *Open = Spans.findOpen(Root);
  ASSERT_NE(Open, nullptr);
  EXPECT_EQ(Open->QueueDelayNs, 5000u);
  Spans.end(Root);
  // Once ended, late queue-delay reports are dropped.
  Spans.addQueueDelay(Root, 999);
  EXPECT_EQ(Spans.recent().back().QueueDelayNs, 5000u);
}

//===----------------------------------------------------------------------===//
// Producer cell handles are the registry's cells
//===----------------------------------------------------------------------===//

TEST(Views, LoopStatsAndKernelCountersComeFromTheRegistry) {
  BrowserEnv Env(chromeProfile());
  Env.loop().post(kernel::Lane::Background,
                  [&] { Env.clock().chargeNs(1000); });
  Env.loop().run();
  const EventLoop::Cells &S = Env.loop().cells();
  EXPECT_EQ(S.EventsRun->value(), 1u);
  EXPECT_EQ(S.TotalEventNs->value(), 1000u);
  EXPECT_EQ(S.EventsRun, &Env.metrics().counter("loop.events_run"));
  EXPECT_EQ(
      Env.loop().kernel().lane(kernel::Lane::Background).Dispatched->value(),
      1u);
}

//===----------------------------------------------------------------------===//
// Exposition
//===----------------------------------------------------------------------===//

TEST(Exposition, PrometheusCarriesEveryInstrumentKind) {
  VirtualClock Clock;
  obs::Registry Reg(Clock);
  Reg.counter("kernel.lane.input.posted").inc(3);
  Reg.gauge("server.active").set(2);
  Reg.histogram("fs.op_ns").record(2000);
  std::string Text = obs::renderPrometheus(Reg);
  EXPECT_NE(Text.find("doppio_kernel_lane_input_posted 3"), std::string::npos);
  EXPECT_NE(Text.find("doppio_server_active 2"), std::string::npos);
  EXPECT_NE(Text.find("doppio_fs_op_ns_count 1"), std::string::npos);
  EXPECT_NE(Text.find("doppio_fs_op_ns_bucket"), std::string::npos);
  EXPECT_NE(Text.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(Text.find("doppio_spans_started 0"), std::string::npos);
}

TEST(Exposition, PrometheusLeCountsAreExact) {
  VirtualClock Clock;
  obs::Registry Reg(Clock);
  obs::Histogram &H = Reg.histogram("h");
  std::vector<uint64_t> Values = logUniformStream(7, 4000);
  // Values on and beside every bound, where an inexact edge would show.
  for (unsigned I = 0; I < 26; ++I) {
    uint64_t B = 1000ull << I;
    Values.insert(Values.end(), {B - 1, B, B + 1});
  }
  for (uint64_t V : Values)
    H.record(V);
  std::istringstream Text(obs::renderPrometheus(Reg));
  std::string Line;
  size_t Bounds = 0;
  while (std::getline(Text, Line)) {
    const std::string Prefix = "doppio_h_bucket{le=\"";
    if (Line.rfind(Prefix, 0) != 0)
      continue;
    size_t Close = Line.find('"', Prefix.size());
    std::string Le = Line.substr(Prefix.size(), Close - Prefix.size());
    uint64_t Got = std::stoull(Line.substr(Line.rfind(' ') + 1));
    uint64_t Bound = Le == "+Inf" ? UINT64_MAX : std::stoull(Le);
    uint64_t Want = std::count_if(Values.begin(), Values.end(),
                                  [&](uint64_t V) { return V <= Bound; });
    EXPECT_EQ(Got, Want) << "le=" << Le;
    ++Bounds;
  }
  EXPECT_EQ(Bounds, 27u);
}

TEST(Exposition, JsonCarriesSpansWithParentLinks) {
  VirtualClock Clock;
  obs::Registry Reg(Clock);
  obs::SpanId Root = Reg.spans().begin("client.req");
  obs::SpanId Child = Reg.spans().beginChildOf("server.req.echo", Root);
  Reg.spans().end(Child);
  Reg.spans().end(Root);
  std::string Json = obs::renderJson(Reg);
  EXPECT_NE(Json.find("\"spans\""), std::string::npos);
  EXPECT_NE(Json.find("\"client.req\""), std::string::npos);
  EXPECT_NE(Json.find("\"server.req.echo\""), std::string::npos);
  EXPECT_NE(Json.find("\"parent\": " + std::to_string(Root)),
            std::string::npos);
}

//===----------------------------------------------------------------------===//
// doppiod metrics handler
//===----------------------------------------------------------------------===//

/// One browser hosting a doppiod with the metrics handler installed.
struct MetricsRig {
  MetricsRig() : Env(chromeProfile()) {
    auto Root = std::make_unique<fs::InMemoryBackend>(Env);
    Root->seedFile("/srv/hello.txt", bytesOf("hello"));
    Fs = std::make_unique<fs::FileSystem>(Env, Proc, std::move(Root));
    server::Server::Config Cfg;
    Cfg.Port = 7000;
    Srv = std::make_unique<server::Server>(Env, Cfg);
    server::installDefaultHandlers(Srv->router(), *Fs, &Env.metrics());
    EXPECT_TRUE(Srv->start());
  }

  BrowserEnv Env;
  Process Proc;
  std::unique_ptr<fs::FileSystem> Fs;
  std::unique_ptr<server::Server> Srv;
};

TEST(MetricsHandler, ServesPrometheusTextOverTheFrameCodec) {
  MetricsRig R;
  server::FrameClient C(R.Env.net());
  std::string Text;
  C.connect(7000, [&](bool Ok) {
    ASSERT_TRUE(Ok);
    // One real request first (scraping only after its response, so the
    // scrape is guaranteed to cover the completed traffic).
    C.request("file", bytesOf("/srv/hello.txt"),
              [&](server::frame::Response Resp) {
                EXPECT_EQ(Resp.S, server::frame::Status::Ok);
                C.request("metrics", {}, [&](server::frame::Response M) {
                  ASSERT_EQ(M.S, server::frame::Status::Ok);
                  Text = M.text();
                  C.close();
                });
              });
  });
  R.Env.loop().run();
  // The exposition covers kernel lanes, fs ops, and server requests.
  EXPECT_NE(Text.find("doppio_kernel_lane_"), std::string::npos);
  EXPECT_NE(Text.find("doppio_fs_ops"), std::string::npos);
  EXPECT_NE(Text.find("doppio_server_requests_served"), std::string::npos);
  EXPECT_NE(Text.find("doppio_loop_events_run"), std::string::npos);
}

TEST(MetricsHandler, JsonScrapeShowsEndToEndSpans) {
  MetricsRig R;
  server::FrameClient C(R.Env.net());
  std::string Json;
  C.connect(7000, [&](bool Ok) {
    ASSERT_TRUE(Ok);
    C.request("file", bytesOf("/srv/hello.txt"),
              [&](server::frame::Response Resp) {
                EXPECT_EQ(Resp.S, server::frame::Status::Ok);
                C.request("metrics", bytesOf("json"),
                          [&](server::frame::Response M) {
                            ASSERT_EQ(M.S, server::frame::Status::Ok);
                            Json = M.text();
                            C.close();
                          });
              });
  });
  R.Env.loop().run();
  // The file request produced a server span with the fs span beneath it —
  // at least one end-to-end sample in the scrape.
  EXPECT_NE(Json.find("\"server.req.file\""), std::string::npos);
  EXPECT_NE(Json.find("\"fs.readFile\""), std::string::npos);
  EXPECT_NE(Json.find("\"queue_delay_ns\""), std::string::npos);
  // And the fs span is parented under the server request span.
  const obs::SpanStore &Spans = R.Env.metrics().spans();
  obs::SpanId ServerSpan = 0;
  for (const obs::Span &Sp : Spans.recent())
    if (Sp.Name == "server.req.file")
      ServerSpan = Sp.Id;
  ASSERT_NE(ServerSpan, 0u);
  bool FsUnderServer = false;
  for (const obs::Span &Sp : Spans.recent())
    if (Sp.Name == "fs.readFile" && Sp.Parent == ServerSpan)
      FsUnderServer = true;
  EXPECT_TRUE(FsUnderServer);
}

TEST(MetricsHandler, UnknownFormatIsBadRequest) {
  MetricsRig R;
  server::FrameClient C(R.Env.net());
  server::frame::Status Got = server::frame::Status::Ok;
  C.connect(7000, [&](bool Ok) {
    ASSERT_TRUE(Ok);
    C.request("metrics", bytesOf("xml"), [&](server::frame::Response Resp) {
      Got = Resp.S;
      C.close();
    });
  });
  R.Env.loop().run();
  EXPECT_EQ(Got, server::frame::Status::BadRequest);
}

} // namespace
