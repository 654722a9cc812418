//===- examples/file_server.cpp - doppiod in five minutes ----------------===//
//
// A tour of the doppiod server subsystem (src/doppio/server/): stand up a
// Server backed by the Doppio file system, register the stock echo / stat /
// file handlers plus a custom one, and talk to it with a handful of
// FrameClients — all inside one deterministic event-loop run. Finishes
// with a graceful shutdown: the listener closes, in-flight requests drain,
// and the drain callback confirms every connection is gone.
//
// This is the part of Unix that §5.3 leaves to an external websockify
// process; doppiod brings the server half into the runtime (cf. Browsix).
//
// Build and run:  ./build/examples/file_server
//
//===----------------------------------------------------------------------===//

#include "doppio/backends/in_memory.h"
#include "doppio/fs.h"
#include "doppio/server/client.h"
#include "doppio/server/handlers.h"
#include "doppio/server/server.h"

#include <cstdio>

using namespace doppio;
using namespace doppio::rt;

static std::vector<uint8_t> bytesOf(const std::string &S) {
  return std::vector<uint8_t>(S.begin(), S.end());
}

int main() {
  browser::BrowserEnv Env(browser::chromeProfile());
  Process Proc;

  // A tiny site to serve.
  auto Root = std::make_unique<fs::InMemoryBackend>(Env);
  Root->seedFile("/site/index.html", bytesOf("<h1>doppiod</h1>"));
  Root->seedFile("/site/data.bin", std::vector<uint8_t>(4096, 0x2a));
  fs::FileSystem Fs(Env, Proc, std::move(Root));

  // The server: echo/stat/file come stock; "version" shows a custom
  // handler registered through the router.
  server::Server::Config Cfg;
  Cfg.Port = 8080;
  Cfg.MaxConnections = 8;
  server::Server Srv(Env, Cfg);
  server::installDefaultHandlers(Srv.router(), Fs, &Env.metrics());
  Srv.router().handle("version",
                      [](const server::frame::Request &,
                         server::Router::RespondFn Respond) {
                        Respond(server::frame::Status::Ok,
                                bytesOf("doppiod/0.1"));
                      });
  if (!Srv.start()) {
    printf("could not listen on %u\n", Cfg.Port);
    return 1;
  }
  printf("listening on simulated port %u with handlers:", Cfg.Port);
  for (const std::string &Name : Srv.router().names())
    printf(" %s", Name.c_str());
  printf("\n\n");

  auto show = [](const char *What, server::frame::Response R) {
    printf("%-28s [%s] %zu bytes: %.48s\n", What,
           server::frame::statusName(R.S), R.Body.size(),
           R.text().c_str());
  };

  // Three clients, talking concurrently over SimNet.
  server::FrameClient A(Env.net()), B(Env.net()), C(Env.net());
  A.connect(Cfg.Port, [&](bool Ok) {
    if (!Ok)
      return;
    A.request("version", {}, [&](auto R) { show("A: version", R); });
    A.request("echo", bytesOf("hello, server"),
              [&](auto R) { show("A: echo", R); });
  });
  B.connect(Cfg.Port, [&](bool Ok) {
    if (!Ok)
      return;
    B.request("stat", bytesOf("/site/data.bin"),
              [&](auto R) { show("B: stat /site/data.bin", R); });
    B.request("file", bytesOf("/site/index.html"),
              [&](auto R) { show("B: file /site/index.html", R); });
    B.request("file", bytesOf("/site/missing"),
              [&](auto R) { show("B: file /site/missing", R); });
  });
  C.connect(Cfg.Port, [&](bool Ok) {
    if (!Ok)
      return;
    // No such handler: the router answers NoHandler, connection stays up.
    C.request("rm -rf", {}, [&](auto R) { show("C: rm -rf", R); });
  });

  // Let the traffic complete, then drain.
  Env.loop().postAfter(
      kernel::Lane::IoCompletion,
      [&] {
        printf("\nshutting down (drain)...\n");
        Srv.shutdown([&] {
          server::ServerStats S = Srv.stats();
          printf("drained: accepted=%llu served=%llu errors=%llu "
                 "active=%llu bytes_out=%llu\n",
                 (unsigned long long)S.Accepted,
                 (unsigned long long)S.RequestsServed,
                 (unsigned long long)S.RequestErrors,
                 (unsigned long long)S.Active,
                 (unsigned long long)S.BytesOut);
        });
      },
      browser::msToNs(50));

  Env.loop().run();
  return 0;
}
