//===- browser/xhr.cpp ----------------------------------------------------==//

#include "browser/xhr.h"

using namespace doppio;
using namespace doppio::browser;

std::vector<std::string> StaticServer::list(const std::string &Prefix) const {
  std::vector<std::string> Result;
  for (auto It = Files.lower_bound(Prefix); It != Files.end(); ++It) {
    if (It->first.compare(0, Prefix.size(), Prefix) != 0)
      break;
    Result.push_back(It->first);
  }
  return Result;
}

void Xhr::get(std::string Path, std::function<void(Response)> Done) {
  ++Requests;
  const std::vector<uint8_t> *File = Server.lookup(Path);
  const CostModel &Costs = Prof.Costs;
  if (!File) {
    Loop.postAfter(kernel::Lane::IoCompletion,
                   [Done = std::move(Done)] { Done({404, {}, {}}); },
                   Costs.XhrLatencyNs);
    return;
  }
  Response R;
  R.Status = 200;
  R.Body = *File;
  // Browsers without typed arrays receive the body as a JS string, one byte
  // per 16-bit code unit: twice the memory traffic and an extra decode pass,
  // which the cost model reflects.
  R.Transport = Prof.HasTypedArrays ? XhrTransport::TypedArray
                                    : XhrTransport::BinaryString;
  uint64_t Bytes = R.Body.size();
  BytesMoved += Bytes;
  uint64_t Latency = Costs.XhrLatencyNs + Costs.XhrPerByteNs * Bytes;
  if (R.Transport == XhrTransport::BinaryString)
    Latency += Costs.XhrPerByteNs * Bytes; // String transcoding overhead.
  Loop.postAfter(
      kernel::Lane::IoCompletion,
      [Done = std::move(Done), R = std::move(R)]() mutable {
        Done(std::move(R));
      },
      Latency);
}
