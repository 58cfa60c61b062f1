//===- SourceLRU.h - source-keyed LRU cache for repeated requests -*- C++ -*-===//
///
/// \file
/// The one cache mechanism of the pipeline: an LRU of immutable values
/// computed per tokenized source. Serving traffic repeats sources
/// (identical functions across binaries, retried requests, evaluation
/// sweeps — the duplication SLaDe removes from its training set, §V-A),
/// and everything cached here is a deterministic function of its key, so
/// a hit is byte-identical to recomputing. core::Decompiler owns two
/// instances:
///
///  - EncoderLRU holds a source's encoder output and cross-attention K/V
///    (Transformer::EncoderCache). A hit skips the encoder pass.
///  - DecodeLRU holds the finished beam-search hypotheses of a source
///    under one beam configuration. The serve engine consults it in
///    front of decode, so a repeat that never overlaps the original in
///    flight still skips its whole decode.
///
/// A key is (token vector, weight version, Tag). Entries from an older
/// weight version never match again and age out. The Tag separates
/// results that differ for the same source and weights: DecodeTag holds
/// the beam width, the length budget, the length penalty and whether the
/// grammar constraint was on; the encoder uses the empty NoTag.
///
/// Eviction is bounded by entry count and, when a byte budget is set, by
/// the bytes the entries hold (the value bytes told to insert() plus the
/// stored key). The most recently inserted entry always survives, so one
/// oversized entry degrades to "no caching" rather than thrashing.
///
/// Thread-safe: every operation is one short critical section, and a hit
/// returns the stored object (values are shared, never copied). Values
/// are computed outside the lock, so concurrent misses on the same key
/// may both compute; insert() keeps whichever landed first.
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_NN_SOURCELRU_H
#define SLADE_NN_SOURCELRU_H

#include "nn/Beam.h"
#include "nn/Transformer.h"
#include "support/StringUtils.h"

#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace slade {
namespace nn {

/// The Tag of a cache keyed by (source, weight version) alone.
struct NoTag {
  bool operator==(const NoTag &) const { return true; }
};

template <typename Value, typename Tag = NoTag> class SourceLRU {
public:
  using ValuePtr = std::shared_ptr<const Value>;

  /// \p Capacity bounds the entry count; \p ByteBudget caps the bytes
  /// the entries hold (0 = only the count bound applies).
  explicit SourceLRU(size_t Capacity, size_t ByteBudget = 0)
      : Cap(Capacity ? Capacity : 1), Budget(ByteBudget) {}

  /// The value cached for the key, or nullptr. A hit marks the entry
  /// most recently used.
  ValuePtr find(const std::vector<int> &Src, uint64_t Version,
                const Tag &T = Tag()) {
    uint64_t Hash = hashSource(Src);
    std::lock_guard<std::mutex> Lock(Mu);
    if (const Entry *E = touch(Hash, Src, Version, T)) {
      ++St.Hits;
      return E->Val;
    }
    ++St.Misses;
    return nullptr;
  }

  /// Caches \p V, which holds \p ValueBytes bytes, and returns the cached
  /// value: \p V, or the entry a racing caller inserted first for the
  /// same key.
  ValuePtr insert(const std::vector<int> &Src, uint64_t Version,
                  const Tag &T, ValuePtr V, size_t ValueBytes) {
    uint64_t Hash = hashSource(Src);
    std::lock_guard<std::mutex> Lock(Mu);
    return insertLocked(Hash, Src, Version, T, std::move(V), ValueBytes);
  }

  /// find(), or on a miss: runs \p Compute (outside the lock, so misses
  /// on different sources proceed in parallel), adds its wall time to
  /// Stats::MissSeconds and inserts the result, sized by its bytes().
  template <typename ComputeFn>
  ValuePtr getOrCompute(const std::vector<int> &Src, uint64_t Version,
                        ComputeFn Compute, const Tag &T = Tag()) {
    if (ValuePtr Hit = find(Src, Version, T))
      return Hit;
    auto T0 = std::chrono::steady_clock::now();
    ValuePtr V = Compute();
    double Seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
            .count();
    size_t ValueBytes = V->bytes();
    uint64_t Hash = hashSource(Src);
    std::lock_guard<std::mutex> Lock(Mu);
    St.MissSeconds += Seconds;
    return insertLocked(Hash, Src, Version, T, std::move(V), ValueBytes);
  }

  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Insertions = 0;
    uint64_t Evictions = 0;
    /// Wall-clock seconds getOrCompute spent computing missed values
    /// (the cold-encode cost serving metrics report per run).
    double MissSeconds = 0;
  };
  Stats stats() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return St;
  }

  size_t size() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Order.size();
  }
  size_t capacity() const { return Cap; }
  /// Bytes currently held by the entries: the sum over them of their
  /// value bytes plus their stored key tokens.
  size_t bytesUsed() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Bytes;
  }
  size_t byteBudget() const { return Budget; }
  void clear() {
    std::lock_guard<std::mutex> Lock(Mu);
    Order.clear();
    Index.clear();
    Bytes = 0;
  }

private:
  struct Entry {
    uint64_t Hash;
    uint64_t Version;
    Tag T;
    std::vector<int> Src; ///< Guards against hash collisions.
    ValuePtr Val;
    size_t Bytes; ///< Accounted on insert (entries are immutable).
  };
  using Iter = typename std::list<Entry>::iterator;

  static uint64_t hashSource(const std::vector<int> &Src) {
    return fnv1a64(std::string_view(reinterpret_cast<const char *>(Src.data()),
                                    Src.size() * sizeof(int)));
  }

  /// The entry for the key, moved to the front; nullptr if absent.
  /// Caller holds the lock.
  const Entry *touch(uint64_t Hash, const std::vector<int> &Src,
                     uint64_t Version, const Tag &T) {
    auto Range = Index.equal_range(Hash);
    for (auto It = Range.first; It != Range.second; ++It) {
      const Entry &E = *It->second;
      if (E.Version == Version && E.T == T && E.Src == Src) {
        Order.splice(Order.begin(), Order, It->second);
        return &E;
      }
    }
    return nullptr;
  }

  ValuePtr insertLocked(uint64_t Hash, const std::vector<int> &Src,
                        uint64_t Version, const Tag &T, ValuePtr V,
                        size_t ValueBytes) {
    if (const Entry *E = touch(Hash, Src, Version, T))
      return E->Val;
    Order.push_front(Entry{Hash, Version, T, Src, std::move(V), 0});
    Entry &E = Order.front();
    // Account the STORED key: the copy is trimmed to size, while the
    // caller's vector may carry push_back growth slack.
    E.Bytes = ValueBytes + E.Src.capacity() * sizeof(int);
    Bytes += E.Bytes;
    Index.emplace(Hash, Order.begin());
    ++St.Insertions;
    // Count bound, then byte budget; the new entry (front) survives both.
    while (Order.size() > Cap)
      evictOne();
    while (Budget && Bytes > Budget && Order.size() > 1)
      evictOne();
    return E.Val;
  }

  /// Unlinks the LRU tail entry. Caller holds the lock.
  void evictOne() {
    Iter Victim = std::prev(Order.end());
    auto Range = Index.equal_range(Victim->Hash);
    for (auto It = Range.first; It != Range.second; ++It)
      if (It->second == Victim) {
        Index.erase(It);
        break;
      }
    Bytes -= Victim->Bytes;
    Order.pop_back();
    ++St.Evictions;
  }

  mutable std::mutex Mu;
  size_t Cap;
  size_t Budget;
  size_t Bytes = 0;       ///< Sum of Entry::Bytes over the cache.
  std::list<Entry> Order; ///< Front = most recently used.
  std::unordered_multimap<uint64_t, Iter> Index;
  Stats St;
};

/// Encoder outputs per (source, weight version).
using EncoderLRU = SourceLRU<Transformer::EncoderCache>;

/// The part of a DecodeLRU key beyond (source, weight version): every
/// BeamConfig field that changes the hypotheses a source decodes to.
/// Speculation is not part of it: its outputs equal plain decode's.
struct DecodeTag {
  int BeamSize = 0;
  int MaxLen = 0;
  float LengthPenalty = 1.0f;
  bool Constrained = false;

  static DecodeTag of(const BeamConfig &Cfg) {
    return {Cfg.BeamSize, Cfg.MaxLen, Cfg.LengthPenalty,
            Cfg.Constraint != nullptr};
  }
  bool operator==(const DecodeTag &O) const {
    return BeamSize == O.BeamSize && MaxLen == O.MaxLen &&
           LengthPenalty == O.LengthPenalty && Constrained == O.Constrained;
  }
};

/// Finished beam results per (source, weight version, DecodeTag).
using DecodeLRU = SourceLRU<std::vector<Hypothesis>, DecodeTag>;

/// Heap bytes held by a finished beam result, as DecodeLRU accounts it.
inline size_t hypothesesBytes(const std::vector<Hypothesis> &Hyps) {
  size_t B = sizeof(Hyps) + Hyps.capacity() * sizeof(Hypothesis);
  for (const Hypothesis &H : Hyps)
    B += H.Tokens.capacity() * sizeof(int);
  return B;
}

} // namespace nn
} // namespace slade

#endif // SLADE_NN_SOURCELRU_H
