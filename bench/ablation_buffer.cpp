//===- bench/ablation_buffer.cpp - §5.1 ablation: binary strings ---------===//
//
// DESIGN.md ablation #4: Buffer's packed binary-string codec (2 bytes per
// UTF-16 code unit on non-validating engines) versus the 1-byte-per-char
// fallback forced by validating engines. Reports storage amplification
// against the localStorage quota per browser.
//
//===----------------------------------------------------------------------===//

#include "bench_util.h"

#include "doppio/buffer.h"

using namespace doppio;
using namespace doppio::rt;

namespace {

void printAblation() {
  printf("==========================================================\n");
  printf("Ablation (§5.1): packed binary strings vs 1-byte fallback\n");
  printf("==========================================================\n");
  printf("%-10s %-8s %16s %22s\n", "browser", "packed?",
         "string units/KB", "5MB quota holds (KB)");
  std::vector<uint8_t> Payload(1024);
  for (size_t I = 0; I != Payload.size(); ++I)
    Payload[I] = static_cast<uint8_t>(I * 131);
  bench::BenchJson Json("ablation_buffer");
  for (const browser::Profile &P : browser::allProfiles()) {
    browser::BrowserEnv Env(P);
    Buffer B(Env, Payload);
    js::String Encoded = B.toString(Encoding::BinaryString);
    bool Packed = Buffer::packsTwoBytesPerChar(P);
    // localStorage stores 2 bytes per code unit; capacity in payload KB:
    double UnitsPerKb = static_cast<double>(Encoded.size());
    double PayloadPerQuota =
        1024.0 * (static_cast<double>(P.LocalStorageQuotaBytes) /
                  (2.0 * UnitsPerKb)) /
        1024.0;
    printf("%-10s %-8s %16.0f %20.0f\n", P.Name.c_str(),
           Packed ? "yes" : "no", UnitsPerKb, PayloadPerQuota);
    Json.row(P.Name)
        .metric("packed", Packed ? 1 : 0)
        .metric("units_per_kb", UnitsPerKb)
        .metric("quota_holds_kb", PayloadPerQuota);
  }
  Json.write();
  printf("(validating engines — opera, ie8 — halve effective\n"
         " localStorage capacity for binary data, §5.1)\n\n");
}

} // namespace

int main() {
  printAblation();
  return 0;
}
