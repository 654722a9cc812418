//===- bench/ablation_heap.cpp - §5.2 ablation: heap backing store -------===//
//
// DESIGN.md ablation #3: the unmanaged heap over a typed array
// (ArrayBuffer) versus a plain JavaScript number array. Reports the
// virtual-time cost per browser, and the sweep's checksum so that the
// comparer pins the work the sweep does.
//
//===----------------------------------------------------------------------===//

#include "bench_util.h"

#include "doppio/heap.h"

using namespace doppio;
using namespace doppio::rt;

namespace {

struct SweepResult {
  uint64_t VirtualNs = 0;
  uint64_t Checksum = 0; ///< Sum of one word read back per block.
};

/// A fixed workload over one heap: allocate, fill, read back, free.
SweepResult heapSweep(browser::BrowserEnv &Env, int Blocks) {
  UnmanagedHeap Heap(Env, 1u << 20);
  uint64_t Start = Env.clock().nowNs();
  std::vector<UnmanagedHeap::Addr> Live;
  std::vector<uint8_t> Payload(512, 0x5A);
  uint64_t Checksum = 0;
  for (int I = 0; I != Blocks; ++I) {
    UnmanagedHeap::Addr A = Heap.malloc(512);
    if (!A)
      break;
    Heap.writeBytes(A, Payload.data(), Payload.size());
    Checksum += static_cast<uint64_t>(Heap.readInt32(A + 256));
    Live.push_back(A);
    if (Live.size() > 64) {
      Heap.free(Live.front());
      Live.erase(Live.begin());
    }
  }
  for (UnmanagedHeap::Addr A : Live)
    Heap.free(A);
  return {Env.clock().nowNs() - Start, Checksum};
}

void printAblation() {
  printf("==========================================================\n");
  printf("Ablation (§5.2): typed-array heap vs number-array heap\n");
  printf("(virtual time of 4000 alloc/fill/read/free rounds)\n");
  printf("==========================================================\n");
  printf("%-10s %-14s %12s\n", "browser", "backing", "virtual ms");
  bench::BenchJson Json("ablation_heap");
  for (const browser::Profile &P : browser::allProfiles()) {
    browser::BrowserEnv Env(P);
    UnmanagedHeap Probe(Env, 4096);
    SweepResult R = heapSweep(Env, 4000);
    printf("%-10s %-14s %12.2f\n", P.Name.c_str(),
           Probe.usesTypedArray() ? "typed array" : "number array",
           static_cast<double>(R.VirtualNs) / 1e6);
    Json.row(P.Name)
        .metric("typed_array", Probe.usesTypedArray() ? 1 : 0)
        .metric("virtual_ms", static_cast<double>(R.VirtualNs) / 1e6)
        .metric("checksum", static_cast<double>(R.Checksum));
  }
  Json.write();
  printf("(ie8 lacks typed arrays: every access decodes boxed doubles,\n"
         " §5.2 — the same mechanism that slows its Buffer in Figure 6)\n\n");
}

} // namespace

int main() {
  printAblation();
  return 0;
}
