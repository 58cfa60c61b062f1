//===- InferRuntime.h - graph-free inference runtime ------------*- C++ -*-===//
///
/// \file
/// The inference-side execution engine of the Transformer (§VI-A): runs
/// the encoder stack and the batched KV-cached decoder directly on raw
/// float buffers with the tiled/AVX2 kernels — no autograd tape, no
/// per-node allocation. The Graph-based `encode`/`decode`/`pairLoss` in
/// Transformer remain the training path and the bit-exactness oracle:
/// every kernel here either IS the kernel the graph ops call (gemmAcc*,
/// softmaxRowInPlace, layerNormRow) or mirrors the op sequence
/// operation for operation, so `InferRuntime` outputs are bit-identical
/// to the training graph (pinned by tests/test_nn.cpp).
///
/// An InferRuntime is a cheap view over a Transformer (created on demand
/// by the Transformer's public inference entry points); the expensive
/// state — the `EncodeScratch` arena — is pooled process-wide and reused
/// across calls and threads.
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_NN_INFERRUNTIME_H
#define SLADE_NN_INFERRUNTIME_H

#include "nn/Transformer.h"

#include <cstddef>
#include <memory>
#include <vector>

namespace slade {
namespace nn {

/// Preallocated activation buffers for one encoder forward pass, sized
/// for the longest source seen so far and reused across calls (the
/// encoder allocates NOTHING per request once the arena is warm).
/// Acquired from a process-wide pool by InferRuntime::encodeSource, or
/// owned directly by callers that want single-threaded reuse.
struct EncodeScratch {
  /// Query rows per block of encoder self-attention: scores, softmax and
  /// the value product run one block at a time. A multiple of the GEMM
  /// row tile, so every row meets the same microkernel as in one
  /// T-row product and the outputs are bit-identical.
  static constexpr int AttnRowBlock = 16;

  std::vector<float> X;       ///< [T, D] residual stream.
  std::vector<float> Norm;    ///< [T, D] pre-LN block input.
  std::vector<float> Q, K, V; ///< [T, D] attention projections.
  std::vector<float> Qh, Kh, Vh; ///< [T, Dh] per-head slices.
  /// [AttnRowBlock, T] one head's attention rows for one query block.
  std::vector<float> Scores;
  std::vector<float> HeadOut; ///< [T, Dh] one head's output.
  std::vector<float> Attn;    ///< [T, D] concatenated head outputs.
  std::vector<float> Proj;    ///< [T, D] block output before residual.
  std::vector<float> FF1;     ///< [T, FF] feed-forward hidden.
  /// Tile-packing scratch for the per-head score GEMM (Kh^T). An explicit
  /// handle with the same pooled lifetime as the rest of the arena — the
  /// kernels hold NO hidden thread-local pack buffers, so sanitizer jobs
  /// (ASan/TSan) see every byte the encoder touches pinned to this
  /// scratch's owner. (The batched decoder needs no NT pack scratch: all
  /// its weight-side operands are pre-packed in DecodeConstants.)
  PackedMat PackB;

  /// Grows every buffer to fit a T-token source of \p Cfg's shape.
  /// Never shrinks, so a pooled scratch converges to the corpus maximum.
  void ensure(const TransformerConfig &Cfg, int T);
  /// Heap bytes currently held (capacity, not size).
  size_t bytes() const;
};

/// Bytes currently retained by the process-wide EncodeScratch pool
/// (idle arenas waiting for the next encodeSource call).
size_t encodeScratchRetainedBytes();

class InferRuntime {
public:
  explicit InferRuntime(const Transformer &M) : M(M) {}

  /// -- encoder ------------------------------------------------------------

  /// Graph-free encoder forward + cross-K/V precompute over a pooled
  /// scratch arena. Bit-identical to Transformer::encodeSourceGraph.
  std::shared_ptr<const Transformer::EncoderCache>
  encodeSource(const std::vector<int> &Src) const;

  /// Same, over caller-owned scratch (no pool round-trip): fills
  /// Out.EncOut/TSrc only; call finishEncoderCache for cross-K/V+consts.
  void encodeInto(const std::vector<int> &Src, EncodeScratch &S,
                  Transformer::EncoderCache &Out) const;

  /// Cross-attention K/V precompute + shared decode constants from an
  /// already-filled EncOut. Shared by the fast path and the graph oracle
  /// so the two produce identical caches whenever EncOut matches.
  void finishEncoderCache(Transformer::EncoderCache &Cache) const;

  /// -- decoder (the batched KV-cached hot path) ----------------------------

  /// Builds the weight-version-tagged decode constants (fused self Q|K|V,
  /// transposed output embedding). Transformer::decodeConstants owns the
  /// per-model cache slot and calls this on a version miss.
  std::shared_ptr<const Transformer::DecodeConstants>
  buildDecodeConstants() const;

  /// Builds the weight-version-tagged encoder/cross packed-weight tiles
  /// (every persistent matrix the encoder-side GEMMs consume, pre-packed
  /// into the blocked tile-major microkernel layout). Cached per weight
  /// version by Transformer::packedWeights, invalidated together with
  /// DecodeConstants by bumpWeightVersion().
  std::shared_ptr<const Transformer::PackedWeights> buildPackedWeights() const;

  Transformer::BatchDecodeState
  startDecodeStream(int MaxSources, int BeamsPerSource, int MaxSteps) const;
  int admitStreamRow(Transformer::BatchDecodeState &St, int Seg,
                     std::shared_ptr<const Transformer::EncoderCache> Enc)
      const;
  std::vector<float> stepDecodeBatch(Transformer::BatchDecodeState &St,
                                     const std::vector<int> &Tokens) const;
  void reorderBeams(Transformer::BatchDecodeState &St,
                    const std::vector<int> &SrcIdx) const;
  void abortStreamSegment(Transformer::BatchDecodeState &St, int Seg) const;

  /// -- speculative decode (see Transformer.h for the contracts) ------------

  std::vector<float> stepDecodeSpec(Transformer::BatchDecodeState &St,
                                    const std::vector<SpecRow> &Plan,
                                    int Begin, int End) const;
  void commitSpec(Transformer::BatchDecodeState &St,
                  const std::vector<SpecRow> &Plan,
                  const std::vector<int> &NewRows) const;

private:
  const Transformer &M;

  /// The one batched-decoder forward: embeds, runs every decoder layer
  /// and the output projection over St.FwdRows, returns logits
  /// [FwdRows.size(), Vocab]. stepDecodeBatch and stepDecodeSpec are
  /// thin lowerings onto this, which is what makes speculative logits
  /// bit-identical to committed stepping by construction.
  std::vector<float>
  forwardDecodeRows(Transformer::BatchDecodeState &St) const;

  /// Out = X * W over a PRE-PACKED weight, bias added AFTER the product
  /// (mirrors the graph's addRow(matmul(...)) rounding).
  void linearRowsBiasAfter(const float *X, int Rows, const PackedMat &W,
                           const float *Bias, float *Out) const;
  /// Out[r] = X[r] * W + Bias over a PRE-PACKED weight, bias seeded
  /// before accumulation (the decode-path layout).
  void linearRows(const float *X, int Rows, const PackedMat &W,
                  const float *Bias, float *Out) const;
  /// int8 variant over a pre-quantized transposed weight ([out, in] rows):
  /// bias-seed, quantize the activations into \p ActQ, then gemmI8NT.
  void linearRowsI8(const float *X, int Rows, const QuantizedMat &W,
                    const float *Bias, float *Out, QuantizedMat &ActQ) const;
};

} // namespace nn
} // namespace slade

#endif // SLADE_NN_INFERRUNTIME_H
