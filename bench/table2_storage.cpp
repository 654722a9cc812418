//===- bench/table2_storage.cpp - Table 2: storage mechanisms ------------===//
//
// Regenerates Table 2: the persistent storage mechanisms available to web
// pages, probed live across the six simulated browsers: storage format,
// synchrony, maximum size (measured by writing until the quota rejects),
// and compatibility weighted by 2013 desktop market share.
//
//===----------------------------------------------------------------------===//

#include "bench_util.h"

using namespace doppio;
using namespace doppio::bench;
using namespace doppio::browser;

namespace {

/// Early-2013 desktop market-share weights (DESIGN.md calibration). The
/// remaining ~11.5% of the market runs browsers outside the six profiles;
/// they are assumed to have cookies but neither localStorage nor
/// IndexedDB (old IE and long-tail browsers dominated that remainder).
double marketShare(const std::string &Name) {
  if (Name == "chrome")
    return 0.27;
  if (Name == "firefox")
    return 0.18;
  if (Name == "safari")
    return 0.085;
  if (Name == "opera")
    return 0.015;
  if (Name == "ie10")
    return 0.045;
  if (Name == "ie8")
    return 0.29; // IE8+IE9-era installs.
  return 0;
}

/// Share of the market outside the modeled profiles.
constexpr double OtherShare = 0.115;

/// Measured capacity of a sync string store: writes 64 KB values until
/// the quota rejects.
uint64_t measureQuota(SyncKeyValueStore &Store) {
  // Chunk well below the quota so the measurement resolves small jars.
  size_t Units = std::max<uint64_t>(Store.quotaBytes() / 8, 64) / 2;
  js::String Chunk(Units, u'x');
  int Key = 0;
  while (Store.setItem("k" + std::to_string(Key), Chunk) ==
         StoreResult::Ok)
    ++Key;
  return Store.usedBytes();
}

void printTable2() {
  printf("==================================================================\n");
  printf("Table 2: persistent storage mechanisms (probed per browser)\n");
  printf("==================================================================\n");
  printf("%-14s %-22s %-5s %-12s %s\n", "mechanism", "format", "sync",
         "measured max", "compatibility");

  double CookieShare = OtherShare, LocalShare = 0, IdbShare = 0;
  double Total = OtherShare;
  for (const Profile &P : allProfiles()) {
    double Share = marketShare(P.Name);
    Total += Share;
    if (P.HasCookies)
      CookieShare += Share;
    if (P.HasLocalStorage)
      LocalShare += Share;
    if (P.HasIndexedDB)
      IdbShare += Share;
  }
  // Cookies predate all six profiles: over 99% compatible (Table 2).
  BrowserEnv Chrome(chromeProfile());
  uint64_t CookieMax = measureQuota(Chrome.cookies());
  uint64_t LocalMax = measureQuota(Chrome.localStorage());
  BenchJson Json("table2_storage");
  Json.row("cookies")
      .metric("max_kb", static_cast<double>(CookieMax) / 1024.0)
      .metric("sync", 1)
      .metric("compat_pct", 100.0 * CookieShare / Total);
  Json.row("localStorage")
      .metric("max_kb", static_cast<double>(LocalMax) / 1024.0)
      .metric("sync", 1)
      .metric("compat_pct", 100.0 * LocalShare / Total);
  Json.row("IndexedDB")
      .metric("sync", 0)
      .metric("compat_pct", 100.0 * IdbShare / Total);
  Json.write();
  printf("%-14s %-22s %-5s %9.0f KB %9.0f%%  (paper: >99%%)\n", "cookies",
         "string key/value", "yes",
         static_cast<double>(CookieMax) / 1024.0,
         100.0 * CookieShare / Total);
  printf("%-14s %-22s %-5s %9.0f KB %9.0f%%  (paper: ~90%%)\n",
         "localStorage", "string key/value", "yes",
         static_cast<double>(LocalMax) / 1024.0,
         100.0 * LocalShare / Total);
  printf("%-14s %-22s %-5s %12s %9.0f%%  (paper: <50%%)\n", "IndexedDB",
         "object database", "no", "user quota",
         100.0 * IdbShare / Total);

  printf("\nper-browser availability:\n%-14s", "");
  for (const Profile &P : allProfiles())
    printf(" %8s", P.Name.c_str());
  printf("\n%-14s", "cookies");
  for (const Profile &P : allProfiles())
    printf(" %8s", P.HasCookies ? "yes" : "-");
  printf("\n%-14s", "localStorage");
  for (const Profile &P : allProfiles())
    printf(" %8s", P.HasLocalStorage ? "yes" : "-");
  printf("\n%-14s", "IndexedDB");
  for (const Profile &P : allProfiles())
    printf(" %8s", P.HasIndexedDB ? "yes" : "-");
  printf("\n\nIndexedDB is asynchronous: a blocking file system cannot be"
         "\nbuilt on it directly — Doppio's suspend-and-resume is what"
         "\nrestores synchronous semantics (§5.1/§4.2).\n\n");
}

} // namespace

int main() {
  printTable2();
  return 0;
}
