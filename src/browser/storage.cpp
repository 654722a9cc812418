//===- browser/storage.cpp ------------------------------------------------==//

#include "browser/storage.h"

using namespace doppio;
using namespace doppio::browser;

SyncKeyValueStore::~SyncKeyValueStore() = default;

StoreResult QuotaStringStore::setItem(const std::string &Key,
                                      const js::String &Value) {
  if (Prof.ValidatesStrings && !js::isValidUtf16(Value))
    return StoreResult::InvalidString;
  uint64_t NewBytes = entryBytes(Key, Value);
  uint64_t OldBytes = 0;
  auto It = Items.find(Key);
  if (It != Items.end())
    OldBytes = entryBytes(Key, It->second);
  if (Used - OldBytes + NewBytes > Quota)
    return StoreResult::QuotaExceeded;
  Clock.chargeNs(Prof.Costs.StoragePerByteNs * NewBytes);
  Used = Used - OldBytes + NewBytes;
  Items[Key] = Value;
  return StoreResult::Ok;
}

std::optional<js::String>
QuotaStringStore::getItem(const std::string &Key) const {
  auto It = Items.find(Key);
  if (It == Items.end())
    return std::nullopt;
  Clock.chargeNs(Prof.Costs.StoragePerByteNs * entryBytes(Key, It->second));
  return It->second;
}

void QuotaStringStore::removeItem(const std::string &Key) {
  auto It = Items.find(Key);
  if (It == Items.end())
    return;
  Used -= entryBytes(Key, It->second);
  Items.erase(It);
}

std::vector<std::string> QuotaStringStore::keys() const {
  std::vector<std::string> Result;
  Result.reserve(Items.size());
  for (const auto &[Key, Value] : Items)
    Result.push_back(Key);
  return Result;
}

void QuotaStringStore::clear() {
  Items.clear();
  Used = 0;
}

void IndexedDB::put(std::string Key, Bytes Value,
                    std::function<void(bool)> Done) {
  uint64_t Latency =
      Prof.Costs.IdbLatencyNs + Prof.Costs.StoragePerByteNs * Value.size() / 4;
  Loop.postAfter(
      kernel::Lane::IoCompletion,
      [this, Key = std::move(Key), Value = std::move(Value),
       Done = std::move(Done)]() mutable {
        uint64_t OldBytes = 0;
        auto It = Items.find(Key);
        if (It != Items.end())
          OldBytes = It->second.size();
        uint64_t NewUsed = Used - OldBytes + Value.size();
        if (NewUsed > Quota) {
          if (Done)
            Done(false);
          return;
        }
        Used = NewUsed;
        Items[Key] = std::move(Value);
        if (Done)
          Done(true);
      },
      Latency);
}

void IndexedDB::get(std::string Key,
                    std::function<void(std::optional<Bytes>)> Done) {
  Loop.postAfter(
      kernel::Lane::IoCompletion,
      [this, Key = std::move(Key), Done = std::move(Done)] {
        auto It = Items.find(Key);
        if (It == Items.end()) {
          Done(std::nullopt);
          return;
        }
        Done(It->second);
      },
      Prof.Costs.IdbLatencyNs);
}

void IndexedDB::remove(std::string Key, std::function<void()> Done) {
  Loop.postAfter(
      kernel::Lane::IoCompletion,
      [this, Key = std::move(Key), Done = std::move(Done)] {
        auto It = Items.find(Key);
        if (It != Items.end()) {
          Used -= It->second.size();
          Items.erase(It);
        }
        if (Done)
          Done();
      },
      Prof.Costs.IdbLatencyNs);
}

void IndexedDB::listKeys(
    std::function<void(std::vector<std::string>)> Done) {
  Loop.postAfter(
      kernel::Lane::IoCompletion,
      [this, Done = std::move(Done)] {
        std::vector<std::string> Result;
        Result.reserve(Items.size());
        for (const auto &[Key, Value] : Items)
          Result.push_back(Key);
        Done(std::move(Result));
      },
      Prof.Costs.IdbLatencyNs);
}
