//===- EncoderLRU.h - encoder-output cache for repeated requests -*- C++ -*-===//
///
/// \file
/// An LRU cache of per-source encoder state (Transformer::EncoderCache)
/// keyed by a hash of the tokenized source AND the model's weight version.
/// Serving traffic repeats sources (identical functions across binaries,
/// retried requests, evaluation sweeps); a hit skips the whole encoder
/// forward pass and cross-K/V computation. Entries from an older weight
/// version never match and age out of the LRU naturally.
///
/// Eviction is bounded two ways: by entry count (Capacity) and, when a
/// ByteBudget is set, by the heap bytes the cached EncoderCaches hold —
/// long sources cost ~(1 + 2*DecLayers) * TSrc * DModel floats each, so
/// a count bound alone lets memory scale with source length. The most
/// recently inserted entry always survives, so one oversized source
/// degrades to "no caching" rather than thrashing.
///
/// Thread-safe. The encode itself runs OUTSIDE the lock, so concurrent
/// misses on different sources do not serialize; concurrent misses on the
/// SAME source may encode twice (both produce identical caches, one wins
/// the insert) — correctness over strict single-flight.
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_NN_ENCODERLRU_H
#define SLADE_NN_ENCODERLRU_H

#include "nn/Transformer.h"

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace slade {
namespace nn {

class EncoderLRU {
public:
  /// \p ByteBudget caps the heap bytes held by cached entries (0 = only
  /// the entry-count bound applies).
  explicit EncoderLRU(size_t Capacity = 64, size_t ByteBudget = 0)
      : Cap(Capacity ? Capacity : 1), Budget(ByteBudget) {}

  /// Returns the encoder cache for \p Src under \p Model's current
  /// weights, computing and inserting it on a miss.
  std::shared_ptr<const Transformer::EncoderCache>
  get(const Transformer &Model, const std::vector<int> &Src);

  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
    /// Wall-clock seconds spent running the encoder on misses (the
    /// cold-encode cost serving metrics report per run).
    double MissSeconds = 0;
  };
  Stats stats() const;

  size_t size() const;
  size_t capacity() const { return Cap; }
  /// Heap bytes currently held by the cached entries (EncoderCache
  /// buffers + key token vectors).
  size_t bytesUsed() const;
  size_t byteBudget() const { return Budget; }
  void clear();

private:
  struct Entry {
    uint64_t Hash = 0;
    uint64_t Version = 0;
    std::vector<int> Src; ///< Guards against hash collisions.
    std::shared_ptr<const Transformer::EncoderCache> Enc;
    size_t Bytes = 0; ///< Accounted on insert (entries are immutable).
  };

  /// Unlinks the LRU tail entry. Caller holds the lock.
  void evictOne();

  mutable std::mutex Mu;
  size_t Cap;
  size_t Budget;
  size_t Bytes = 0; ///< Sum of Entry::Bytes over the cache.
  std::list<Entry> Order; ///< Front = most recently used.
  std::unordered_multimap<uint64_t, std::list<Entry>::iterator> Index;
  Stats St;
};

} // namespace nn
} // namespace slade

#endif // SLADE_NN_ENCODERLRU_H
