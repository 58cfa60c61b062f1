//===- BeamCore.h - shared beam-search selection core -----------*- C++ -*-===//
///
/// \file
/// The per-source beam-search bookkeeping shared by both decode drivers:
/// the single-source loop in Beam.cpp (beamSearch) and the
/// continuous-batching serve engine (serve/Engine.cpp). Keeping the
/// log-softmax / top-k / candidate-ordering / retirement logic in ONE
/// place is what makes the drivers byte-identical per source: they can
/// only differ in how rows are batched, never in which hypotheses
/// survive.
///
/// Internal header — not part of the public API surface (include from
/// .cpp files only).
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_NN_BEAMCORE_H
#define SLADE_NN_BEAMCORE_H

#include "nn/Beam.h"
#include "tok/VocabConstraint.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>
#include <vector>

namespace slade {
namespace nn {
namespace beamcore {

/// Log-softmax into a reused output buffer.
inline void logSoftmax(const float *Logits, int V, std::vector<float> &Out) {
  float MaxV = -1e30f;
  for (int I = 0; I < V; ++I)
    MaxV = std::max(MaxV, Logits[I]);
  double Sum = 0;
  for (int I = 0; I < V; ++I)
    Sum += std::exp(static_cast<double>(Logits[I] - MaxV));
  float LogZ = MaxV + static_cast<float>(std::log(Sum));
  Out.resize(static_cast<size_t>(V));
  for (int I = 0; I < V; ++I)
    Out[static_cast<size_t>(I)] = Logits[I] - LogZ;
}

/// Top-K token indices by (log-prob desc, index asc) via a bounded
/// min-heap: O(V log K), no vocab-sized index vector, scratch reused
/// across beams and steps.
inline void topK(const std::vector<float> &LogP, int K,
                 std::vector<std::pair<float, int>> &Heap,
                 std::vector<int> &Out) {
  int V = static_cast<int>(LogP.size());
  K = std::min(K, V);
  // "Better" orders by higher log-prob, ties to the lower token id.
  auto Better = [](const std::pair<float, int> &A,
                   const std::pair<float, int> &B) {
    return A.first > B.first || (A.first == B.first && A.second < B.second);
  };
  Heap.clear();
  for (int I = 0; I < V; ++I) {
    std::pair<float, int> Cand{LogP[static_cast<size_t>(I)], I};
    if (static_cast<int>(Heap.size()) < K) {
      Heap.push_back(Cand);
      std::push_heap(Heap.begin(), Heap.end(), Better);
    } else if (Better(Cand, Heap.front())) {
      std::pop_heap(Heap.begin(), Heap.end(), Better);
      Heap.back() = Cand;
      std::push_heap(Heap.begin(), Heap.end(), Better);
    }
  }
  std::sort_heap(Heap.begin(), Heap.end(), Better); // Best first.
  Out.clear();
  for (const auto &P : Heap)
    Out.push_back(P.second);
}

struct Cand {
  float Score;
  int BeamIdx;
  int Token;
};

struct BeamMeta {
  std::vector<int> Tokens;
  float Score = 0;
};

struct SelectScratch {
  std::vector<float> LogP;
  std::vector<std::pair<float, int>> Heap;
  std::vector<int> Top;
  std::vector<Cand> Cands;
};

struct SelectResult {
  std::vector<int> SrcIdx; ///< Parent beam index (local) per survivor.
  std::vector<int> Tokens; ///< Token fed to each survivor.
  /// The finished-hypothesis quota was reached: the caller must stop
  /// stepping and penalize the PRE-expansion Live set (left untouched).
  bool StopNow = false;
};

/// Per-source grammar-constraint state for one decode: each live beam
/// carries an oracle cursor (States[i] parallels Live[i]); survivor
/// selection forks/retires cursors exactly like K/V rows. Created from
/// BeamConfig::Constraint by every driver via init(); selectBeamStep /
/// finalizeBeams take it as an optional — nullptr (or a null Vocab) is
/// the unconstrained path, bit-for-bit identical to the pre-constraint
/// code.
struct ConstraintCtx {
  const tok::VocabConstraint *Vocab = nullptr;
  ConstraintStats *Stats = nullptr;
  std::vector<cc::PrefixOracle::State> States; ///< Parallel to Live.
  // Scratch reused across steps.
  std::vector<uint8_t> Allowed;
  std::vector<float> MaskedLogits;
  std::vector<cc::PrefixOracle::State> NextStates;

  void init(const BeamConfig &Cfg) {
    Vocab = Cfg.Constraint;
    Stats = Cfg.Stats;
    States.clear();
    if (Vocab)
      States.push_back(Vocab->start());
  }
  bool active() const { return Vocab != nullptr; }
};

/// One expansion step for one source's beams: log-softmax + top-k per
/// live beam, deterministic candidate ordering (score desc, then beam,
/// then token — ties never diverge between decode paths), EOS/PAD
/// candidates retire into \p Done, survivors replace \p Live. Shared by
/// the single-source search loop, the cross-request multi driver, and
/// the serve engine, so their per-source decisions are the same code.
template <typename LogitsOf>
SelectResult selectBeamStep(std::vector<BeamMeta> &Live,
                            std::vector<Hypothesis> &Done,
                            const LogitsOf &Logits, int Vocab,
                            const BeamConfig &Cfg, SelectScratch &S,
                            ConstraintCtx *CC = nullptr) {
  SelectResult R;
  S.Cands.clear();
  bool Constrained = CC && CC->active();
  for (size_t BI = 0; BI < Live.size(); ++BI) {
    const float *Row = Logits(BI);
    if (Constrained) {
      // Mask pieces whose text kills every syntactic continuation of
      // this beam BEFORE softmax/top-k, so probability mass and the
      // candidate pool only ever cover viable tokens.
      auto T0 = std::chrono::steady_clock::now();
      int Masked = CC->Vocab->allowedTokens(CC->States[BI], CC->Allowed);
      CC->MaskedLogits.assign(Row, Row + Vocab);
      for (int I = 0; I < Vocab; ++I)
        if (!CC->Allowed[static_cast<size_t>(I)])
          CC->MaskedLogits[static_cast<size_t>(I)] = -1e30f;
      if (CC->Stats) {
        CC->Stats->TokensMasked += static_cast<uint64_t>(Masked);
        CC->Stats->OracleSeconds +=
            std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          T0)
                .count();
        if (Masked >= Vocab)
          ++CC->Stats->BeamsKilled; // Contributes no candidates below.
      }
      logSoftmax(CC->MaskedLogits.data(), Vocab, S.LogP);
    } else {
      logSoftmax(Row, Vocab, S.LogP);
    }
    topK(S.LogP, Cfg.BeamSize, S.Heap, S.Top);
    for (int Tok : S.Top) {
      if (Constrained && !CC->Allowed[static_cast<size_t>(Tok)])
        continue; // A fully-masked beam dies here (its K/V row frees).
      S.Cands.push_back({Live[BI].Score + S.LogP[static_cast<size_t>(Tok)],
                         static_cast<int>(BI), Tok});
    }
  }
  std::sort(S.Cands.begin(), S.Cands.end(),
            [](const Cand &A, const Cand &B) {
              if (A.Score != B.Score)
                return A.Score > B.Score;
              if (A.BeamIdx != B.BeamIdx)
                return A.BeamIdx < B.BeamIdx;
              return A.Token < B.Token;
            });

  std::vector<BeamMeta> Next;
  for (const Cand &C : S.Cands) {
    if (static_cast<int>(Next.size()) >= Cfg.BeamSize)
      break;
    if (C.Token == Transformer::EosId || C.Token == Transformer::PadId) {
      Hypothesis H;
      H.Tokens = Live[static_cast<size_t>(C.BeamIdx)].Tokens;
      float Len = static_cast<float>(H.Tokens.size()) + 1.0f;
      H.Score = C.Score / std::pow(Len, Cfg.LengthPenalty);
      Done.push_back(std::move(H));
      continue;
    }
    BeamMeta M;
    M.Tokens = Live[static_cast<size_t>(C.BeamIdx)].Tokens;
    M.Tokens.push_back(C.Token);
    M.Score = C.Score;
    Next.push_back(std::move(M));
    R.SrcIdx.push_back(C.BeamIdx);
    R.Tokens.push_back(C.Token);
  }
  if (static_cast<int>(Done.size()) >= Cfg.BeamSize) {
    R.StopNow = true; // Pre-expansion Live falls through penalized.
    return R;
  }
  if (Constrained) {
    // Fork the surviving oracle cursors exactly like the K/V rows the
    // caller is about to reorder (snapshot = copy, advance by the
    // emitted piece's text).
    CC->NextStates.clear();
    CC->NextStates.reserve(R.SrcIdx.size());
    for (size_t I = 0; I < R.SrcIdx.size(); ++I) {
      cc::PrefixOracle::State NS =
          CC->States[static_cast<size_t>(R.SrcIdx[I])];
      CC->Vocab->advanceToken(NS, R.Tokens[I]);
      CC->NextStates.push_back(NS);
    }
    CC->States.swap(CC->NextStates);
  }
  Live = std::move(Next);
  return R;
}

/// Unfinished beams become (penalized) hypotheses so we always return
/// something; then sort best-first and cap at BeamSize. Under a
/// constraint (\p CC), unfinished beams whose text is not a complete
/// valid translation unit are dropped instead — no syntactically broken
/// candidate may reach IO-verification (the result may then be empty).
inline std::vector<Hypothesis> finalizeBeams(std::vector<BeamMeta> &&Live,
                                             std::vector<Hypothesis> &&Done,
                                             const BeamConfig &Cfg,
                                             const ConstraintCtx *CC =
                                                 nullptr) {
  bool Constrained = CC && CC->active();
  for (size_t I = 0; I < Live.size(); ++I) {
    BeamMeta &M = Live[I];
    if (Constrained && (I >= CC->States.size() ||
                        !CC->Vocab->acceptsEnd(CC->States[I])))
      continue;
    Hypothesis H;
    H.Tokens = std::move(M.Tokens);
    float Len = static_cast<float>(H.Tokens.size()) + 1.0f;
    H.Score = (M.Score - 5.0f) / std::pow(Len, Cfg.LengthPenalty);
    Done.push_back(std::move(H));
  }
  std::sort(Done.begin(), Done.end(),
            [](const Hypothesis &A, const Hypothesis &B) {
              if (A.Score != B.Score)
                return A.Score > B.Score;
              return A.Tokens < B.Tokens;
            });
  if (static_cast<int>(Done.size()) > Cfg.BeamSize)
    Done.resize(static_cast<size_t>(Cfg.BeamSize));
  return std::move(Done);
}

} // namespace beamcore
} // namespace nn
} // namespace slade

#endif // SLADE_NN_BEAMCORE_H
