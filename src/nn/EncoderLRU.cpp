//===- EncoderLRU.cpp - encoder-output cache for repeated requests ------------===//

#include "nn/EncoderLRU.h"

#include <chrono>

using namespace slade;
using namespace slade::nn;

namespace {

/// FNV-1a over the token ids; the token vector itself disambiguates
/// collisions at lookup time.
uint64_t hashTokens(const std::vector<int> &Src) {
  uint64_t H = 1469598103934665603ULL;
  for (int T : Src) {
    H ^= static_cast<uint64_t>(static_cast<uint32_t>(T));
    H *= 1099511628211ULL;
  }
  return H;
}

size_t entryBytes(const std::vector<int> &Src,
                  const Transformer::EncoderCache &Enc) {
  return Enc.bytes() + Src.capacity() * sizeof(int);
}

} // namespace

void EncoderLRU::evictOne() {
  const Entry &Victim = Order.back();
  auto VR = Index.equal_range(Victim.Hash);
  for (auto It = VR.first; It != VR.second; ++It)
    if (It->second == std::prev(Order.end())) {
      Index.erase(It);
      break;
    }
  Bytes -= Victim.Bytes;
  Order.pop_back();
  ++St.Evictions;
}

std::shared_ptr<const Transformer::EncoderCache>
EncoderLRU::get(const Transformer &Model, const std::vector<int> &Src) {
  uint64_t Hash = hashTokens(Src);
  uint64_t Version = Model.weightVersion();
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto Range = Index.equal_range(Hash);
    for (auto It = Range.first; It != Range.second; ++It) {
      Entry &E = *It->second;
      if (E.Version == Version && E.Src == Src) {
        Order.splice(Order.begin(), Order, It->second); // Touch.
        ++St.Hits;
        return E.Enc;
      }
    }
  }

  // Miss: encode outside the lock so unrelated sources encode in
  // parallel. The cold-encode wall time feeds the serving metrics.
  auto T0 = std::chrono::steady_clock::now();
  std::shared_ptr<const Transformer::EncoderCache> Enc =
      Model.encodeSource(Src);
  double Seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
          .count();

  std::lock_guard<std::mutex> Lock(Mu);
  ++St.Misses;
  St.MissSeconds += Seconds;
  // A racing thread may have inserted the same source meanwhile; prefer
  // its copy so repeated hits share one cache object.
  auto Range = Index.equal_range(Hash);
  for (auto It = Range.first; It != Range.second; ++It) {
    Entry &E = *It->second;
    if (E.Version == Version && E.Src == Src)
      return E.Enc;
  }
  Order.push_front(Entry{Hash, Version, Src, Enc, 0});
  // Account the STORED copy of the key (its capacity is trimmed to size;
  // the caller's vector may carry push_back growth slack).
  Order.front().Bytes = entryBytes(Order.front().Src, *Enc);
  Bytes += Order.front().Bytes;
  Index.emplace(Hash, Order.begin());
  // Count bound, then byte budget; the freshly inserted entry (front)
  // always survives so an oversized single source cannot thrash.
  while (Order.size() > Cap)
    evictOne();
  while (Budget && Bytes > Budget && Order.size() > 1)
    evictOne();
  return Enc;
}

EncoderLRU::Stats EncoderLRU::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return St;
}

size_t EncoderLRU::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Order.size();
}

size_t EncoderLRU::bytesUsed() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Bytes;
}

void EncoderLRU::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Order.clear();
  Index.clear();
  Bytes = 0;
}
