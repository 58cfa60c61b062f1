//===- DraftModel.cpp - distilled draft decoder for speculation ---------------===//

#include "nn/DraftModel.h"

#include "nn/Beam.h"
#include "nn/InferRuntime.h"

#include <algorithm>
#include <cstring>

using namespace slade;
using namespace slade::nn;

std::shared_ptr<const Transformer::EncoderCache>
nn::deriveDraftCache(const Transformer &Draft,
                     const Transformer::EncoderCache &FullEnc) {
  auto Cache = std::make_shared<Transformer::EncoderCache>();
  Cache->EncOut = FullEnc.EncOut; // The shared encoder representation.
  Cache->TSrc = FullEnc.TSrc;
  InferRuntime(Draft).finishEncoderCache(*Cache);
  return Cache;
}

DraftModel DraftModel::distill(const Transformer &Full,
                               const std::vector<std::vector<int>> &Sources,
                               const DraftConfig &Cfg) {
  const TransformerConfig &FC = Full.config();
  TransformerConfig DC = FC;
  DC.EncLayers = 0; // Decoder-only: conditions on the full encoder.
  DC.DecLayers = std::max(1, Cfg.DecLayers);
  DC.Seed = Cfg.Seed;
  Transformer Draft(DC);

  // Share the embeddings: the draft scores tokens in EXACTLY the full
  // model's embedding space, which is what makes shallow proposals land
  // on the same token ids the full model would pick.
  Draft.TokEmb.V = Full.TokEmb.V;
  Draft.DecPos.V = Full.DecPos.V;
  Draft.EncPos.V = Full.EncPos.V; // Unused (no encoder); kept aligned.

  // 1. Teacher pass: greedy-decode every source once with the full
  //    model, reusing the encoder cache for the training input below.
  struct Pair {
    std::shared_ptr<const Transformer::EncoderCache> Enc;
    std::vector<int> Tgt;
  };
  std::vector<Pair> Pairs;
  Pairs.reserve(Sources.size());
  for (const std::vector<int> &Src : Sources) {
    if (Src.empty())
      continue;
    Pair P;
    P.Enc = Full.encodeSource(Src);
    P.Tgt = greedyDecode(Full, P.Enc, Cfg.MaxTeacherLen);
    Pairs.push_back(std::move(P));
  }

  // 2. Teacher-forced distillation with frozen embeddings: only the
  //    draft's decoder blocks and final LN train. Round-robin pair order
  //    keeps the pass deterministic.
  if (!Pairs.empty() && Cfg.Steps > 0) {
    std::vector<ParamRef> Trainable;
    for (const ParamRef &P : Draft.params())
      if (P.M != &Draft.TokEmb && P.M != &Draft.DecPos &&
          P.M != &Draft.EncPos)
        Trainable.push_back(P);
    AdamW::Config AC;
    AC.WarmupSteps = std::max(10, Cfg.Steps / 10);
    AdamW Opt(Trainable, AC, &Draft);

    int D = DC.DModel;
    size_t Next = 0;
    for (int Step = 0; Step < Cfg.Steps; ++Step) {
      Graph G;
      for (int B = 0; B < Cfg.BatchSize; ++B) {
        const Pair &P = Pairs[Next];
        Next = (Next + 1) % Pairs.size();
        // The same teacher-forcing shapes as Transformer::pairLoss, but
        // with the FULL model's encoder output as a constant input.
        std::vector<int> In = {Transformer::BosId};
        In.insert(In.end(), P.Tgt.begin(), P.Tgt.end());
        std::vector<int> Out = P.Tgt;
        Out.push_back(Transformer::EosId);
        if (static_cast<int>(In.size()) > DC.MaxLen) {
          In.resize(static_cast<size_t>(DC.MaxLen));
          Out.resize(static_cast<size_t>(DC.MaxLen));
        }
        Mat *EncM = G.make(P.Enc->TSrc, D);
        std::memcpy(EncM->V.data(), P.Enc->EncOut.data(),
                    static_cast<size_t>(P.Enc->TSrc) * D * sizeof(float));
        Mat *H = Draft.decode(G, EncM, In, /*Train=*/true);
        Mat *Logits = matmulNT(G, H, &Draft.TokEmb);
        crossEntropy(G, Logits, Out);
      }
      G.backward();
      Opt.step();
      // The frozen embeddings still accumulate gradients through the
      // shared output projection; drop them so they never feed anything.
      Draft.TokEmb.zeroGrad();
      Draft.DecPos.zeroGrad();
      G.clear();
    }
  }

  if (Cfg.Int8)
    Draft.setInt8Decode(true);
  return DraftModel(std::move(Draft));
}
