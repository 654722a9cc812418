//===- doppio/storage/journal.cpp -----------------------------------------==//

#include "doppio/storage/journal.h"

#include "browser/wire.h"

#include <cstddef>

using namespace doppio;
using namespace doppio::rt;
using namespace doppio::rt::storage;

namespace {

constexpr uint32_t JournalMagic = 0x444a4e4c; // 'DJNL'
constexpr uint32_t JournalVersion = 1;
constexpr size_t HeaderBytes = 8;

/// FNV-1a 32-bit over a record body — detects a torn or bit-flipped tail.
uint32_t checksum(const uint8_t *Data, size_t Size) {
  uint32_t H = 2166136261u;
  for (size_t I = 0; I != Size; ++I) {
    H ^= Data[I];
    H *= 16777619u;
  }
  return H;
}

void writeHeader(std::vector<uint8_t> &Out) {
  browser::wire::putU32(Out, JournalMagic);
  browser::wire::putU32(Out, JournalVersion);
}

/// Bounds-checked record parse starting at \p Pos. Returns true and
/// advances \p Pos past the record (including its checksum) only for a
/// complete record with an intact checksum.
bool parseRecord(const std::vector<uint8_t> &B, size_t &Pos,
                 Journal::Record &R) {
  size_t P = Pos;
  auto need = [&](size_t N) { return B.size() - P >= N; };
  if (!need(1))
    return false;
  uint8_t Kind = B[P++];
  if (Kind < 1 || Kind > 3)
    return false;
  R = Journal::Record();
  R.K = static_cast<Journal::Record::Kind>(Kind);
  switch (R.K) {
  case Journal::Record::Kind::Put: {
    if (!need(4))
      return false;
    uint32_t KeyLen = browser::wire::getU32(B.data() + P);
    P += 4;
    if (!need(KeyLen))
      return false;
    R.Key.assign(B.begin() + static_cast<ptrdiff_t>(P),
                 B.begin() + static_cast<ptrdiff_t>(P + KeyLen));
    P += KeyLen;
    if (!need(12))
      return false;
    R.M.SizeBytes = browser::wire::getU64(B.data() + P);
    P += 8;
    uint32_t NBlocks = browser::wire::getU32(B.data() + P);
    P += 4;
    if (!need(static_cast<size_t>(NBlocks) * 12))
      return false;
    for (uint32_t I = 0; I != NBlocks; ++I) {
      BlockId Id;
      Id.Hash = browser::wire::getU64(B.data() + P);
      P += 8;
      Id.Size = browser::wire::getU32(B.data() + P);
      P += 4;
      R.M.Blocks.push_back(Id);
    }
    break;
  }
  case Journal::Record::Kind::Del: {
    if (!need(4))
      return false;
    uint32_t KeyLen = browser::wire::getU32(B.data() + P);
    P += 4;
    if (!need(KeyLen))
      return false;
    R.Key.assign(B.begin() + static_cast<ptrdiff_t>(P),
                 B.begin() + static_cast<ptrdiff_t>(P + KeyLen));
    P += KeyLen;
    break;
  }
  case Journal::Record::Kind::Commit: {
    if (!need(8))
      return false;
    R.Seq = browser::wire::getU64(B.data() + P);
    P += 8;
    break;
  }
  }
  if (!need(4))
    return false;
  uint32_t Want = browser::wire::getU32(B.data() + P);
  if (checksum(B.data() + Pos, P - Pos) != Want)
    return false;
  Pos = P + 4;
  return true;
}

} // namespace

void Journal::encodeRecord(std::vector<uint8_t> &Out, const Record &R) {
  size_t Start = Out.size();
  Out.push_back(static_cast<uint8_t>(R.K));
  switch (R.K) {
  case Record::Kind::Put:
    browser::wire::putU32(Out, static_cast<uint32_t>(R.Key.size()));
    Out.insert(Out.end(), R.Key.begin(), R.Key.end());
    browser::wire::putU64(Out, R.M.SizeBytes);
    browser::wire::putU32(Out, static_cast<uint32_t>(R.M.Blocks.size()));
    for (const BlockId &Id : R.M.Blocks) {
      browser::wire::putU64(Out, Id.Hash);
      browser::wire::putU32(Out, Id.Size);
    }
    break;
  case Record::Kind::Del:
    browser::wire::putU32(Out, static_cast<uint32_t>(R.Key.size()));
    Out.insert(Out.end(), R.Key.begin(), R.Key.end());
    break;
  case Record::Kind::Commit:
    browser::wire::putU64(Out, R.Seq);
    break;
  }
  browser::wire::putU32(Out,
                        checksum(Out.data() + Start, Out.size() - Start));
}

void Journal::stagePut(const std::string &Key, const Manifest &M) {
  Record R;
  R.K = Record::Kind::Put;
  R.Key = Key;
  R.M = M;
  // Kind, key length, key, size, block count, blocks, checksum.
  StagedBytes += 1 + 4 + Key.size() + 8 + 4 + 12 * M.Blocks.size() + 4;
  Staged.push_back(std::move(R));
}

void Journal::stageDel(const std::string &Key) {
  Record R;
  R.K = Record::Kind::Del;
  R.Key = Key;
  StagedBytes += 1 + 4 + Key.size() + 4;
  Staged.push_back(std::move(R));
}

const std::vector<uint8_t> &Journal::sealGroup() {
  std::vector<Record> Group;
  Group.swap(Staged);
  StagedBytes = 0;
  appendGroup(Group);
  return Log;
}

void Journal::appendGroup(const std::vector<Record> &Rs) {
  if (Log.empty())
    writeHeader(Log);
  if (Rs.empty())
    return;
  for (const Record &R : Rs)
    encodeRecord(Log, R);
  Record Commit;
  Commit.K = Record::Kind::Commit;
  Commit.Seq = NextSeq++;
  encodeRecord(Log, Commit);
}

void Journal::truncate() {
  Log.clear();
  writeHeader(Log);
}

Journal::Recovery Journal::recover(const std::vector<uint8_t> &Bytes,
                                   Directory &Dir) {
  Recovery Out;
  Staged.clear();
  StagedBytes = 0;
  Log.clear();
  writeHeader(Log);
  if (Bytes.empty()) { // Never journaled: a valid empty log.
    Out.HeaderOk = true;
    return Out;
  }
  if (Bytes.size() < HeaderBytes ||
      browser::wire::getU32(Bytes.data()) != JournalMagic ||
      browser::wire::getU32(Bytes.data() + 4) != JournalVersion) {
    Out.TornTailBytes = Bytes.size();
    return Out;
  }
  Out.HeaderOk = true;

  size_t Pos = HeaderBytes;
  size_t LastGoodEnd = HeaderBytes;
  std::vector<Record> Pending;
  Record R;
  while (parseRecord(Bytes, Pos, R)) {
    if (R.K != Record::Kind::Commit) {
      Pending.push_back(R);
      continue;
    }
    // An intact Commit seals the pending group: apply it.
    for (Record &P : Pending) {
      if (P.K == Record::Kind::Put)
        Dir.put(P.Key, std::move(P.M));
      else
        Dir.remove(P.Key);
      ++Out.RecordsApplied;
    }
    Pending.clear();
    ++Out.Commits;
    NextSeq = R.Seq + 1;
    LastGoodEnd = Pos;
  }
  Out.RecordsDiscarded = Pending.size();
  Out.TornTailBytes = Bytes.size() - LastGoodEnd;
  // The journal restarts from the consistent prefix.
  Log.assign(Bytes.begin(), Bytes.begin() + static_cast<ptrdiff_t>(LastGoodEnd));
  return Out;
}
