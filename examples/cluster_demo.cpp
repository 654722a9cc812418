//===- examples/cluster_demo.cpp - sharded doppiod in five minutes -------===//
//
// A tour of the cluster subsystem (src/doppio/cluster/): stand up a
// consistent-hash balancer tab in front of four doppiod shard tabs, pump
// a fleet of front-door clients through it on the deterministic lockstep
// driver, read the aggregated metrics through the same front door, then
// live-spawn a fifth shard and gracefully drain the busiest one — all
// while requests keep flowing and none are lost.
//
// Each shard is a full tab: its own kernel, virtual clock, file system,
// process table, and doppiod server stack. The balancer routes client
// connections with a consistent-hash ring, so adding or draining one
// shard remaps only ~1/N of them — the way a browser would fan work out
// across SharedWorker-connected tabs.
//
// Build and run:  ./build/examples/cluster_demo
//
//===----------------------------------------------------------------------===//

#include "doppio/cluster/cluster.h"

#include "browser/profile.h"
#include "doppio/server/client.h"

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace doppio;
using namespace doppio::cluster;
using doppio::rt::server::FrameClient;

namespace {

std::vector<uint8_t> bytesOf(const std::string &S) {
  return std::vector<uint8_t>(S.begin(), S.end());
}

/// Connects \p N clients to the front door; each issues \p Requests
/// pipelined "work" requests (100us of spin plus one file read in the
/// owning shard) and closes. Returns Ok count after the driver run.
uint64_t pumpClients(Cluster &Cl, LockstepDriver &Drv, size_t N,
                     size_t Requests) {
  std::vector<std::unique_ptr<FrameClient>> Fleet;
  uint64_t Ok = 0;
  for (size_t I = 0; I < N; ++I) {
    auto C = std::make_unique<FrameClient>(Cl.balancer().env().net());
    FrameClient *P = C.get();
    std::string Body = "100 /srv/f" + std::to_string(I % 8) + ".bin";
    P->connect(Cl.balancer().port(), [P, Body, Requests, &Ok](bool Up) {
      if (!Up)
        return;
      for (size_t R = 0; R < Requests; ++R)
        P->request("work", bytesOf(Body),
                   [P, R, Requests, &Ok](rt::server::frame::Response Re) {
                     if (Re.S == rt::server::frame::Status::Ok)
                       ++Ok;
                     if (R + 1 == Requests)
                       P->close();
                   });
    });
    Fleet.push_back(std::move(C));
  }
  Drv.run(1000000);
  return Ok;
}

void printShardTable(Cluster &Cl, const std::vector<uint32_t> &Ids) {
  printf("  %-6s %9s %9s %9s %12s\n", "shard", "accepted", "served",
         "active", "clock-ms");
  for (uint32_t Id : Ids) {
    if (!Cl.shard(Id))
      continue;
    rt::server::ServerStats S = Cl.shard(Id)->server().stats();
    printf("  %-6u %9llu %9llu %9llu %12.2f\n", Id,
           static_cast<unsigned long long>(S.Accepted),
           static_cast<unsigned long long>(S.RequestsServed),
           static_cast<unsigned long long>(S.Active),
           static_cast<double>(Cl.shard(Id)->env().clock().nowNs()) / 1e6);
  }
}

} // namespace

int main() {
  printf("== doppio cluster demo: 1 balancer tab + 4 doppiod shard tabs ==\n\n");

  Cluster::Config Cfg;
  Cfg.Shards = 4;
  Cluster Cl(browser::chromeProfile(), Cfg);
  LockstepDriver Drv(Cl.fabric());

  // --- Phase 1: load through the front door --------------------------------
  uint64_t Ok = pumpClients(Cl, Drv, 32, 8);
  printf("phase 1: 32 clients x 8 requests -> %llu ok, %llu forwarded\n",
         static_cast<unsigned long long>(Ok),
         static_cast<unsigned long long>(
             Cl.balancer().cells().RequestsForwarded->value()));
  printShardTable(Cl, {0, 1, 2, 3});

  // --- Phase 2: aggregated metrics through the same port -------------------
  // "metrics" never reaches a shard: the balancer answers from its own
  // registry, which mirrors every shard snapshot under a "shard" prefix.
  for (uint32_t S = 0; S < 4; ++S)
    Cl.shard(S)->pushStats(Cl.balancer().tab());
  FrameClient Mc(Cl.balancer().env().net());
  std::string Metrics;
  Mc.connect(Cl.balancer().port(), [&](bool Up) {
    if (!Up)
      return;
    Mc.request("metrics", bytesOf("json"),
               [&](rt::server::frame::Response Re) {
                 Metrics = Re.text();
                 Mc.close();
               });
  });
  Drv.run(1000000);
  printf("\nphase 2: metrics through the front door: %zu bytes, %zu shard"
         " snapshots aggregated\n",
         Metrics.size(), Cl.balancer().snapshots().size());

  // --- Phase 3: live-spawn a shard, then drain the busiest one -------------
  uint32_t NewId = Cl.spawnShard();
  printf("\nphase 3: spawned shard %u (live shards: %zu)\n", NewId,
         Cl.balancer().liveShards());

  uint32_t Victim = 0;
  uint64_t Best = 0;
  for (uint32_t S = 0; S < 4; ++S) {
    uint64_t Served = Cl.shard(S)->server().stats().RequestsServed;
    if (Served >= Best) {
      Best = Served;
      Victim = S;
    }
  }
  bool Drained = false;
  Cl.drainShard(Victim, [&](const ShardSnapshot &S) {
    Drained = true;
    printf("  drained shard %u: served %llu requests in its lifetime,"
           " final active=%llu\n",
           S.ShardId, static_cast<unsigned long long>(S.RequestsServed),
           static_cast<unsigned long long>(S.Active));
  });
  Ok = pumpClients(Cl, Drv, 32, 8);
  printf("  under drain: 32 more clients x 8 requests -> %llu ok\n",
         static_cast<unsigned long long>(Ok));
  printf("  drain complete: %s; victim pending kernel work: %s\n",
         Drained ? "yes" : "no",
         Cl.shardPendingWorkNs(Victim) ? "SOME (bug!)" : "none");
  printShardTable(Cl, {0, 1, 2, 3, NewId});

  printf("\nlive shards at exit: %zu; fabric crossings: %llu\n",
         Cl.balancer().liveShards(),
         static_cast<unsigned long long>(Cl.fabric().crossings()));
  return Drained ? 0 : 1;
}
