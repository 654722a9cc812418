//===- tests/doppio/server_test.cpp ---------------------------------------==//
//
// Tests for doppiod (src/doppio/server/): the frame codec, listen/accept
// sockets with backlog semantics, the request router and stock handlers,
// connection-cap backpressure, idle reaping, pipelined response ordering,
// graceful shutdown, the traffic generator, and the §5.3 integration —
// a DoppioSocket client reaching doppiod through the websockify bridge.
//
//===----------------------------------------------------------------------===//

#include "doppio/backends/in_memory.h"
#include "doppio/fs.h"
#include "doppio/obs/exposition.h"
#include "doppio/server/client.h"
#include "doppio/server/handlers.h"
#include "doppio/server/server.h"
#include "doppio/sockets.h"
#include "workloads/traffic.h"

#include "gtest/gtest.h"

#include <type_traits>

using namespace doppio;
using namespace doppio::rt;
using namespace doppio::rt::server;
using namespace doppio::browser;

namespace {

std::vector<uint8_t> bytesOf(const std::string &S) {
  return std::vector<uint8_t>(S.begin(), S.end());
}

//===----------------------------------------------------------------------===//
// Frame codec
//===----------------------------------------------------------------------===//

TEST(Frame, RoundTripsThroughBytewiseDelivery) {
  std::vector<uint8_t> Wire = frame::encode(bytesOf("payload"));
  EXPECT_EQ(Wire.size(), frame::HeaderBytes + 7);
  frame::Decoder D;
  // Worst-case chunking: one byte at a time.
  for (uint8_t B : Wire) {
    EXPECT_FALSE(D.next().has_value());
    D.feed({B});
  }
  auto Out = D.next();
  ASSERT_TRUE(Out.has_value());
  EXPECT_EQ(*Out, bytesOf("payload"));
  EXPECT_FALSE(D.next().has_value());
  EXPECT_EQ(D.bufferedBytes(), 0u);
}

TEST(Frame, CoalescedFramesDecodeInOrder) {
  std::vector<uint8_t> Wire = frame::encode(bytesOf("one"));
  std::vector<uint8_t> Two = frame::encode(bytesOf("two"));
  Wire.insert(Wire.end(), Two.begin(), Two.end());
  frame::Decoder D;
  D.feed(Wire);
  auto A = D.next();
  auto B = D.next();
  ASSERT_TRUE(A && B);
  EXPECT_EQ(*A, bytesOf("one"));
  EXPECT_EQ(*B, bytesOf("two"));
}

TEST(Frame, OversizedLengthPrefixCorruptsTheStream) {
  frame::Decoder D;
  D.feed({0xff, 0xff, 0xff, 0xff});
  EXPECT_FALSE(D.next().has_value());
  EXPECT_TRUE(D.corrupted());
  // Corruption is terminal: even a valid frame afterwards stays stuck.
  D.feed(frame::encode(bytesOf("x")));
  EXPECT_FALSE(D.next().has_value());
}

TEST(Frame, RequestRoundTripAndRejects) {
  frame::Request R{"stat", bytesOf("/tmp/x")};
  auto Back = frame::decodeRequest(frame::encodeRequest(R));
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->Handler, "stat");
  EXPECT_EQ(Back->Body, bytesOf("/tmp/x"));

  EXPECT_FALSE(frame::decodeRequest({}).has_value());
  EXPECT_FALSE(frame::decodeRequest({0}).has_value()); // Empty name.
  EXPECT_FALSE(frame::decodeRequest({5, 'a', 'b'}).has_value()); // Short.
}

TEST(Frame, ResponseRoundTripAndRejects) {
  frame::Response R{frame::Status::Error, bytesOf("ENOENT")};
  auto Back = frame::decodeResponse(frame::encodeResponse(R));
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(Back->S, frame::Status::Error);
  EXPECT_EQ(Back->text(), "ENOENT");

  EXPECT_FALSE(frame::decodeResponse({}).has_value());
  EXPECT_FALSE(frame::decodeResponse({42, 'x'}).has_value()); // Bad status.
}

TEST(Stats, PercentileNearestRank) {
  // The one percentile implementation, shared via obs (satellite fold).
  EXPECT_EQ(obs::percentileNs({}, 50.0), 0u);
  std::vector<uint64_t> S{50, 10, 40, 20, 30};
  EXPECT_EQ(obs::percentileNs(S, 50.0), 30u);
  EXPECT_EQ(obs::percentileNs(S, 99.0), 50u);
  EXPECT_EQ(obs::percentileNs(S, 0.0), 10u);
}

//===----------------------------------------------------------------------===//
// ServerSocket
//===----------------------------------------------------------------------===//

TEST(ServerSocket, BacklogOverflowRefusesConnects) {
  BrowserEnv Env(chromeProfile());
  ServerSocket Sock(Env.net());
  ASSERT_TRUE(Sock.listen(7000, 2));
  int Accepted = 0, RefusedAtClient = 0;
  for (int I = 0; I < 4; ++I)
    Env.net().connect(7000, [&](TcpConnection *C) {
      C ? ++Accepted : ++RefusedAtClient;
    });
  Env.loop().run();
  // Nothing called accept(): two fit the backlog, two bounce.
  EXPECT_EQ(Accepted, 2);
  EXPECT_EQ(RefusedAtClient, 2);
  EXPECT_EQ(Sock.backlogDepth(), 2u);
  EXPECT_EQ(Sock.refused(), 2u);
}

TEST(ServerSocket, AcceptDrainsTheQueueInArrivalOrder) {
  BrowserEnv Env(chromeProfile());
  ServerSocket Sock(Env.net());
  ASSERT_TRUE(Sock.listen(7000, 8));
  std::vector<TcpConnection *> Clients(3, nullptr);
  for (int I = 0; I < 3; ++I)
    Env.net().connect(7000, [&, I](TcpConnection *C) { Clients[I] = C; });
  Env.loop().run();
  ASSERT_EQ(Sock.backlogDepth(), 3u);
  // Tag each queued connection by sending from its client, then accept.
  std::vector<std::string> Order;
  for (int I = 0; I < 3; ++I)
    Clients[I]->send(bytesOf("c" + std::to_string(I)));
  for (int I = 0; I < 3; ++I)
    Sock.accept([&](TcpConnection *C) {
      ASSERT_NE(C, nullptr);
      C->setOnData([&](const std::vector<uint8_t> &D) {
        Order.emplace_back(D.begin(), D.end());
      });
    });
  Env.loop().run();
  EXPECT_EQ(Order, (std::vector<std::string>{"c0", "c1", "c2"}));
}

TEST(ServerSocket, ParkedAcceptCompletesOnArrival) {
  BrowserEnv Env(chromeProfile());
  ServerSocket Sock(Env.net());
  ASSERT_TRUE(Sock.listen(7000, 4));
  bool Got = false;
  Sock.accept([&](TcpConnection *C) { Got = (C != nullptr); });
  Env.net().connect(7000, [](TcpConnection *C) { ASSERT_NE(C, nullptr); });
  Env.loop().run();
  EXPECT_TRUE(Got);
}

TEST(ServerSocket, CloseRefusesQueuedAndCompletesParkedWithNull) {
  BrowserEnv Env(chromeProfile());
  ServerSocket Sock(Env.net());
  ASSERT_TRUE(Sock.listen(7000, 4));
  bool ClientClosed = false;
  Env.net().connect(7000, [&](TcpConnection *C) {
    ASSERT_NE(C, nullptr);
    C->setOnClose([&] { ClientClosed = true; });
  });
  Env.loop().run();
  ASSERT_EQ(Sock.backlogDepth(), 1u);
  bool ParkedGotNull = false;
  Sock.close();
  Sock.accept([&](TcpConnection *C) { ParkedGotNull = (C == nullptr); });
  Env.loop().run();
  EXPECT_TRUE(ParkedGotNull);
  EXPECT_TRUE(ClientClosed);
  EXPECT_FALSE(Env.net().isListening(7000));
  EXPECT_EQ(Sock.refused(), 1u);
}

TEST(ServerSocket, PortConflictFailsListen) {
  BrowserEnv Env(chromeProfile());
  ServerSocket A(Env.net()), B(Env.net());
  EXPECT_TRUE(A.listen(7000, 1));
  EXPECT_FALSE(B.listen(7000, 1));
  A.close();
  EXPECT_TRUE(B.listen(7000, 1));
}

//===----------------------------------------------------------------------===//
// Server
//===----------------------------------------------------------------------===//

Server::Config testConfig() {
  Server::Config Cfg;
  Cfg.Port = 7000;
  Cfg.Backlog = 8;
  Cfg.MaxConnections = 32;
  Cfg.IdleTimeoutNs = browser::msToNs(500);
  return Cfg;
}

/// One browser hosting a doppiod with a seeded file system.
struct ServerRig {
  explicit ServerRig(Server::Config Cfg = testConfig())
      : Env(chromeProfile()) {
    auto Root = std::make_unique<fs::InMemoryBackend>(Env);
    Root->seedFile("/srv/hello.txt", bytesOf("hello from doppio fs"));
    Fs = std::make_unique<fs::FileSystem>(Env, Proc, std::move(Root));
    Srv = std::make_unique<Server>(Env, Cfg);
    installDefaultHandlers(Srv->router(), *Fs, &Env.metrics());
    EXPECT_TRUE(Srv->start());
  }

  BrowserEnv Env;
  Process Proc;
  std::unique_ptr<fs::FileSystem> Fs;
  std::unique_ptr<Server> Srv;
};

TEST(Server, EchoRoundTrip) {
  ServerRig R;
  FrameClient C(R.Env.net());
  std::string Got;
  C.connect(7000, [&](bool Ok) {
    ASSERT_TRUE(Ok);
    C.request("echo", bytesOf("ping"), [&](frame::Response Resp) {
      EXPECT_EQ(Resp.S, frame::Status::Ok);
      Got = Resp.text();
      C.close();
    });
  });
  R.Env.loop().run();
  EXPECT_EQ(Got, "ping");
  ServerStats S = R.Srv->stats();
  EXPECT_EQ(S.Accepted, 1u);
  EXPECT_EQ(S.RequestsServed, 1u);
  EXPECT_EQ(S.RequestErrors, 0u);
  EXPECT_GT(S.BytesIn, 0u);
  EXPECT_GT(S.BytesOut, 0u);
  EXPECT_EQ(S.ServiceCount, 1u);
}

TEST(Server, StatAndFileHandlersServeTheFs) {
  ServerRig R;
  FrameClient C(R.Env.net());
  std::string StatLine, FileBody, MissingErr;
  C.connect(7000, [&](bool Ok) {
    ASSERT_TRUE(Ok);
    C.request("stat", bytesOf("/srv/hello.txt"),
              [&](frame::Response Resp) { StatLine = Resp.text(); });
    C.request("file", bytesOf("/srv/hello.txt"),
              [&](frame::Response Resp) {
                EXPECT_EQ(Resp.S, frame::Status::Ok);
                FileBody = Resp.text();
              });
    C.request("file", bytesOf("/srv/missing"), [&](frame::Response Resp) {
      EXPECT_EQ(Resp.S, frame::Status::Error);
      MissingErr = Resp.text();
      C.close();
    });
  });
  R.Env.loop().run();
  EXPECT_EQ(StatLine, "file 20");
  EXPECT_EQ(FileBody, "hello from doppio fs");
  EXPECT_NE(MissingErr.find("ENOENT"), std::string::npos);
}

TEST(Server, UnknownHandlerAnswersNoHandler) {
  ServerRig R;
  FrameClient C(R.Env.net());
  frame::Response Got;
  C.connect(7000, [&](bool Ok) {
    ASSERT_TRUE(Ok);
    C.request("bogus", {}, [&](frame::Response Resp) {
      Got = std::move(Resp);
      C.close();
    });
  });
  R.Env.loop().run();
  EXPECT_EQ(Got.S, frame::Status::NoHandler);
  EXPECT_EQ(Got.text(), "bogus");
  // The connection survives an unknown handler (only protocol corruption
  // kills it).
  EXPECT_EQ(R.Srv->stats().RequestErrors, 1u);
}

TEST(Server, MalformedRequestAnswersBadRequest) {
  ServerRig R;
  // Raw connection: a well-formed frame whose payload is not a request.
  frame::Decoder D;
  std::optional<frame::Response> Got;
  R.Env.net().connect(7000, [&](TcpConnection *C) {
    ASSERT_NE(C, nullptr);
    C->setOnData([&D, &Got](const std::vector<uint8_t> &Bytes) {
      D.feed(Bytes);
      if (auto Payload = D.next())
        Got = frame::decodeResponse(*Payload);
    });
    C->send(frame::encode({})); // Empty payload: no handler name.
  });
  R.Env.loop().run();
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(Got->S, frame::Status::BadRequest);
}

TEST(Server, CorruptStreamClosesTheConnection) {
  ServerRig R;
  bool Closed = false;
  R.Env.net().connect(7000, [&](TcpConnection *C) {
    ASSERT_NE(C, nullptr);
    C->setOnClose([&] { Closed = true; });
    C->send({0xff, 0xff, 0xff, 0xff}); // 4 GiB length prefix.
  });
  R.Env.loop().run();
  EXPECT_TRUE(Closed);
  EXPECT_EQ(R.Srv->stats().Active, 0u);
}

TEST(Server, PipelinedResponsesKeepRequestOrder) {
  ServerRig R;
  // "slow" completes long after "echo" would; the wire protocol has no
  // request ids, so the server must still respond in request order.
  R.Srv->router().handle(
      "slow", [&R](const frame::Request &, Router::RespondFn Respond) {
        R.Env.loop().postAfter(
            kernel::Lane::IoCompletion,
            [Respond = std::move(Respond)] {
              Respond(frame::Status::Ok, bytesOf("slow-done"));
            },
            browser::msToNs(10));
      });
  FrameClient C(R.Env.net());
  std::vector<std::string> Replies;
  C.connect(7000, [&](bool Ok) {
    ASSERT_TRUE(Ok);
    C.request("slow", {}, [&](frame::Response Resp) {
      Replies.push_back(Resp.text());
    });
    C.request("echo", bytesOf("fast"), [&](frame::Response Resp) {
      Replies.push_back(Resp.text());
      C.close();
    });
  });
  R.Env.loop().run();
  EXPECT_EQ(Replies,
            (std::vector<std::string>{"slow-done", "fast"}));
}

TEST(Server, ConnectionCapBackpressuresIntoBacklogAndRefusal) {
  Server::Config Cfg = testConfig();
  Cfg.MaxConnections = 2;
  Cfg.Backlog = 1;
  ServerRig R(Cfg);
  // Four clients: two accepted, one parked in the backlog, one refused.
  std::vector<std::unique_ptr<FrameClient>> Clients;
  int Connected = 0, ConnRefused = 0;
  std::string ThirdReply;
  for (int I = 0; I < 4; ++I)
    Clients.push_back(std::make_unique<FrameClient>(R.Env.net()));
  for (int I = 0; I < 4; ++I) {
    FrameClient &C = *Clients[I];
    R.Env.loop().postAfter(
        kernel::Lane::IoCompletion,
        [&, I] {
          C.connect(7000, [&, I](bool Ok) {
            Ok ? ++Connected : ++ConnRefused;
            if (!Ok)
              return;
            if (I == 2)
              // Queued behind the cap: this request is served only after
              // a slot frees up.
              C.request("echo", bytesOf("third"),
                        [&](frame::Response Resp) {
                          ThirdReply = Resp.text();
                          C.close();
                        });
          });
        },
        browser::usToNs(100) * (I + 1));
  }
  // Free a slot well after all four connects settled.
  R.Env.loop().postAfter(kernel::Lane::IoCompletion,
                         [&] { Clients[0]->close(); }, browser::msToNs(20));
  R.Env.loop().postAfter(kernel::Lane::IoCompletion,
                         [&] { Clients[1]->close(); }, browser::msToNs(30));
  R.Env.loop().run();
  EXPECT_EQ(Connected, 3); // Fabric-level accepts: 2 active + 1 queued.
  EXPECT_EQ(ConnRefused, 1);
  EXPECT_EQ(ThirdReply, "third");
  ServerStats S = R.Srv->stats();
  EXPECT_EQ(S.Accepted, 3u);
  EXPECT_EQ(S.Refused, 1u);
}

TEST(Server, IdleConnectionsAreReaped) {
  Server::Config Cfg = testConfig();
  Cfg.IdleTimeoutNs = browser::msToNs(5);
  ServerRig R(Cfg);
  FrameClient C(R.Env.net());
  bool ServerHungUp = false;
  C.setOnClose([&] { ServerHungUp = true; });
  C.connect(7000, [&](bool Ok) {
    ASSERT_TRUE(Ok);
    C.request("echo", bytesOf("x"), [](frame::Response) {});
    // ... then go quiet: the idle sweep should hang up on us, and the
    // loop must still terminate (the sweep disarms with no connections).
  });
  R.Env.loop().run();
  EXPECT_TRUE(ServerHungUp);
  ServerStats S = R.Srv->stats();
  EXPECT_EQ(S.IdleClosed, 1u);
  EXPECT_EQ(S.Active, 0u);
  EXPECT_EQ(S.RequestsServed, 1u);
}

TEST(Server, GracefulShutdownDrainsInFlightAndRefusesNewcomers) {
  ServerRig R;
  R.Srv->router().handle(
      "slow", [&R](const frame::Request &, Router::RespondFn Respond) {
        R.Env.loop().postAfter(
            kernel::Lane::IoCompletion,
            [Respond = std::move(Respond)] {
              Respond(frame::Status::Ok, bytesOf("drained-reply"));
            },
            browser::msToNs(10));
      });
  FrameClient A(R.Env.net());
  std::vector<std::string> Events;
  A.setOnClose([&] { Events.push_back("close"); });
  A.connect(7000, [&](bool Ok) {
    ASSERT_TRUE(Ok);
    A.request("slow", {}, [&](frame::Response Resp) {
      EXPECT_EQ(Resp.S, frame::Status::Ok);
      Events.push_back("reply:" + Resp.text());
    });
  });
  // Shut down while the slow request is in flight.
  R.Env.loop().postAfter(
      kernel::Lane::IoCompletion,
      [&] { R.Srv->shutdown([&] { Events.push_back("drained"); }); },
      browser::msToNs(2));
  // A latecomer during the drain is refused outright.
  FrameClient B(R.Env.net());
  bool LateRefused = false;
  R.Env.loop().postAfter(
      kernel::Lane::IoCompletion,
      [&] { B.connect(7000, [&](bool Ok) { LateRefused = !Ok; }); },
      browser::msToNs(4));
  R.Env.loop().run();
  // The server drains the moment its last response is on the wire; the
  // client sees that reply one network latency later, and the FIN only
  // after it (data-before-FIN). So: drained, then reply, then close.
  ASSERT_EQ(Events.size(), 3u);
  EXPECT_EQ(Events[0], "drained");
  EXPECT_EQ(Events[1], "reply:drained-reply");
  EXPECT_EQ(Events[2], "close");
  EXPECT_TRUE(LateRefused);
  EXPECT_FALSE(R.Srv->isRunning());
  EXPECT_EQ(R.Srv->stats().Active, 0u);
}

TEST(Server, ShutdownWhenIdleCompletesImmediately) {
  ServerRig R;
  bool Drained = false;
  R.Srv->shutdown([&] { Drained = true; });
  EXPECT_TRUE(Drained);
  R.Env.loop().run();
  EXPECT_EQ(R.Srv->stats().Active, 0u);
}

TEST(Server, ShutdownCancelsIdleSweepLeavingZeroPendingWork) {
  // A drained server must leave zero pending kernel work — including the
  // idle-sweep timer, which is armed the moment a connection exists. With
  // a 10-virtual-minute sweep, an uncancelled timer would idle the clock
  // all the way forward before the loop could finish.
  Server::Config Cfg = testConfig();
  Cfg.IdleTimeoutNs = browser::msToNs(600000);
  ServerRig R(Cfg);
  FrameClient C(R.Env.net());
  bool Drained = false;
  C.connect(7000, [&](bool Ok) {
    ASSERT_TRUE(Ok);
    C.request("echo", bytesOf("x"), [&](frame::Response Resp) {
      EXPECT_EQ(Resp.S, frame::Status::Ok);
      R.Srv->shutdown([&] { Drained = true; });
    });
  });
  R.Env.loop().run();
  EXPECT_TRUE(Drained);
  EXPECT_FALSE(R.Env.loop().nextEligibleNs().has_value());
  EXPECT_LT(R.Env.clock().nowNs(), Cfg.IdleTimeoutNs);
}

TEST(Server, DestroyWithArmedSweepLeavesZeroPendingWork) {
  // Abrupt teardown (the cluster's kill-shard path): destroying the
  // server with the sweep armed must cancel it, not leave a pending fire
  // that captures a dead `this`.
  Server::Config Cfg = testConfig();
  Cfg.IdleTimeoutNs = browser::msToNs(600000);
  ServerRig R(Cfg);
  FrameClient C(R.Env.net());
  C.connect(7000, [&](bool Ok) {
    ASSERT_TRUE(Ok);
    C.request("echo", bytesOf("x"), [&](frame::Response Resp) {
      EXPECT_EQ(Resp.S, frame::Status::Ok);
      C.close();
      R.Srv.reset();
    });
  });
  R.Env.loop().run();
  EXPECT_FALSE(R.Env.loop().nextEligibleNs().has_value());
  EXPECT_LT(R.Env.clock().nowNs(), Cfg.IdleTimeoutNs);
}

TEST(Server, ShutdownDuringDrainChainsCompletions) {
  ServerRig R;
  R.Srv->router().handle(
      "slow", [&R](const frame::Request &, Router::RespondFn Respond) {
        R.Env.loop().postAfter(
            kernel::Lane::IoCompletion,
            [Respond = std::move(Respond)] {
              Respond(frame::Status::Ok, {});
            },
            browser::msToNs(10));
      });
  FrameClient C(R.Env.net());
  C.connect(7000, [&](bool Ok) {
    ASSERT_TRUE(Ok);
    C.request("slow", {}, [](frame::Response) {});
  });
  std::vector<int> Fired;
  R.Env.loop().postAfter(
      kernel::Lane::IoCompletion,
      [&] { R.Srv->shutdown([&] { Fired.push_back(1); }); },
      browser::msToNs(2));
  // A second shutdown mid-drain joins the first: both callbacks fire once
  // the drain actually completes, in order.
  R.Env.loop().postAfter(
      kernel::Lane::IoCompletion,
      [&] { R.Srv->shutdown([&] { Fired.push_back(2); }); },
      browser::msToNs(4));
  R.Env.loop().run();
  EXPECT_EQ(Fired, (std::vector<int>{1, 2}));
  // And on a stopped server, shutdown completes immediately.
  bool Immediate = false;
  R.Srv->shutdown([&] { Immediate = true; });
  EXPECT_TRUE(Immediate);
}

//===----------------------------------------------------------------------===//
// Traffic generator and the §5.3 client stack
//===----------------------------------------------------------------------===//

TEST(Traffic, GeneratorCompletesAllRequestsAndDrains) {
  ServerRig R;
  workloads::TrafficConfig Cfg;
  Cfg.Port = 7000;
  Cfg.Clients = 5;
  Cfg.RequestsPerClient = 10;
  Cfg.Handler = "echo";
  Cfg.Bodies = {bytesOf("a"), bytesOf("bb")};
  workloads::TrafficGen Gen(R.Env, Cfg);
  bool Drained = false;
  Gen.start([&] { R.Srv->shutdown([&] { Drained = true; }); });
  R.Env.loop().run();
  const workloads::TrafficReport &Rep = Gen.report();
  EXPECT_TRUE(Gen.finished());
  EXPECT_EQ(Rep.Completed, 50u);
  EXPECT_EQ(Rep.Errors, 0u);
  EXPECT_EQ(Rep.ConnectFailures, 0u);
  EXPECT_EQ(Rep.LatenciesNs.size(), 50u);
  EXPECT_GT(Rep.requestsPerSecond(), 0.0);
  EXPECT_GE(Rep.p99Ns(), Rep.p50Ns());
  EXPECT_TRUE(Drained);
  ServerStats S = R.Srv->stats();
  EXPECT_EQ(S.Accepted, 5u);
  EXPECT_EQ(S.RequestsServed, 50u);
  EXPECT_EQ(S.Active, 0u);
  // Everything the server ever owned is gone from the fabric too.
  EXPECT_EQ(R.Env.net().liveConnections(), 0u);
}

/// \p Text with every run of digits collapsed to one '0': two renders of
/// the same instruments then compare equal whatever the values.
std::string shapeOf(const std::string &Text) {
  std::string Out;
  for (char C : Text) {
    bool Digit = C >= '0' && C <= '9';
    if (!Digit)
      Out += C;
    else if (Out.empty() || Out.back() != '0')
      Out += '0';
  }
  return Out;
}

TEST(Traffic, RegistryFootprintIsFlatUnderTraffic) {
  // 1k echo requests, then 100k more through the same tab: the histograms
  // keep nothing per sample, so the registry's renders keep one shape and
  // one size once their values are masked.
  ServerRig R;
  auto Drive = [&](size_t PerClient) {
    workloads::TrafficConfig Cfg;
    Cfg.Port = 7000;
    Cfg.Clients = 10;
    Cfg.RequestsPerClient = PerClient;
    Cfg.Handler = "echo";
    Cfg.Bodies = {bytesOf("ping")};
    workloads::TrafficGen Gen(R.Env, Cfg);
    Gen.start();
    R.Env.loop().run();
    EXPECT_EQ(Gen.report().Completed, 10 * PerClient);
  };
  const obs::Registry &Reg = R.Env.metrics();
  Drive(100);
  std::string Json = shapeOf(obs::renderJson(Reg));
  std::string Prom = shapeOf(obs::renderPrometheus(Reg));
  Drive(10000);
  EXPECT_EQ(R.Srv->stats().ServiceCount, 101000u);
  EXPECT_EQ(shapeOf(obs::renderJson(Reg)).size(), Json.size());
  EXPECT_EQ(shapeOf(obs::renderPrometheus(Reg)).size(), Prom.size());
  // Every histogram is its inline buckets: sizeof is the whole footprint.
  static_assert(std::is_trivially_copyable_v<obs::Histogram>);
  size_t Histograms = 0;
  Reg.forEachHistogram([&](const std::string &, const obs::Histogram &H) {
    EXPECT_TRUE(H.samples().empty());
    ++Histograms;
  });
  EXPECT_GT(Histograms, 0u);
}

TEST(Server, DoppioSocketReachesDoppiodThroughWebsockify) {
  // The full §5.3 client stack against the in-runtime server: DoppioSocket
  // -> WebSocket -> websockify bridge -> TCP -> doppiod. The guest frames
  // its request with the same codec; the server cannot tell it from a
  // native client.
  ServerRig R;
  WebsockifyProxy Proxy(R.Env.net(), 8080, 7000);
  DoppioSocket Sock(R.Env);
  frame::Decoder D;
  std::optional<frame::Response> Got;
  std::function<void()> RecvLoop = [&] {
    Sock.recv([&](ErrorOr<std::vector<uint8_t>> Msg) {
      ASSERT_TRUE(Msg.ok());
      if (Msg->empty())
        return; // EOF.
      D.feed(*Msg);
      if (auto Payload = D.next()) {
        Got = frame::decodeResponse(*Payload);
        Sock.close();
        return;
      }
      RecvLoop();
    });
  };
  Sock.connect(8080, [&](std::optional<ApiError> E) {
    ASSERT_FALSE(E.has_value());
    frame::Request Req{"file", bytesOf("/srv/hello.txt")};
    Sock.send(frame::encode(frame::encodeRequest(Req)),
              [](std::optional<ApiError>) {});
    RecvLoop();
  });
  R.Env.loop().run();
  ASSERT_TRUE(Got.has_value());
  EXPECT_EQ(Got->S, frame::Status::Ok);
  EXPECT_EQ(Got->text(), "hello from doppio fs");
  EXPECT_EQ(R.Srv->stats().RequestsServed, 1u);
}

} // namespace
