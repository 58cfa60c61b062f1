//===- SpecDecode.cpp - speculative propose/verify decode rounds --------------===//

#include "nn/SpecDecode.h"

#include "nn/DraftModel.h"

#include <cassert>
#include <chrono>

using namespace slade;
using namespace slade::nn;

void SpecSession::initStream(int MaxSources, int BeamsPerSource,
                             int MaxSteps) {
  DraftSt = Draft.startDecodeStream(MaxSources, BeamsPerSource, MaxSteps);
}

void SpecSession::admit(int Seg, const Transformer::EncoderCache &FullEnc) {
  int Row = Draft.admitStreamRow(DraftSt, Seg, deriveDraftCache(Draft, FullEnc));
  (void)Row;
  assert(Row >= 0 && "draft admit must mirror a successful full admit");
}

void SpecSession::abortSegment(int Seg) {
  Draft.abortStreamSegment(DraftSt, Seg);
}

int SpecSession::runRound(Transformer::BatchDecodeState &FullSt,
                          std::vector<Job *> &Jobs, const BeamConfig &Cfg,
                          SpecStats &Stats) {
  const int NJ = static_cast<int>(Jobs.size());
  const int Vocab = Full.config().Vocab;

  // Per-round reset + row bases + effective gammas. The gamma clamps are
  // monotone over a job's lifetime (the step budget only shrinks, the
  // segment clock only grows), so a job clamped to 0 stays at 0 — which
  // keeps "stale draft K/V is never attended" an invariant, not a race.
  RowBase.assign(static_cast<size_t>(NJ), 0);
  EffGamma.assign(static_cast<size_t>(NJ), 0);
  int MaxG = 0, Base = 0;
  for (int J = 0; J < NJ; ++J) {
    Job &Jb = *Jobs[J];
    Jb.Finished = false;
    Jb.Proposed = 0;
    Jb.Accepted = 0;
    RowBase[static_cast<size_t>(J)] = Base;
    Base += Jb.StateRows;
    int Gj = std::min(Jb.Gamma, Cfg.MaxLen - 1 - Jb.StepsDone);
    Gj = std::min(Gj, FullSt.Cap - 1 - FullSt.SegLen[static_cast<size_t>(Jb.Seg)]);
    EffGamma[static_cast<size_t>(J)] = std::max(0, Gj);
    MaxG = std::max(MaxG, EffGamma[static_cast<size_t>(J)]);
  }
  assert(Base == FullSt.B && "jobs must cover the live rows in order");

  // Depth-0 plan rows: apply each job's pending (exact) selection to its
  // live state rows. This is the feed plain decode's advance would do.
  Plan.clear();
  DepthStart.assign(static_cast<size_t>(NJ), {});
  DepthCount.assign(static_cast<size_t>(NJ), {});
  Proposals.assign(static_cast<size_t>(NJ), {});
  for (int J = 0; J < NJ; ++J) {
    Job &Jb = *Jobs[J];
    DepthStart[static_cast<size_t>(J)].push_back(static_cast<int>(Plan.size()));
    DepthCount[static_cast<size_t>(J)].push_back(
        static_cast<int>(Jb.PendingSrc.size()));
    for (size_t I = 0; I < Jb.PendingSrc.size(); ++I) {
      SpecRow R;
      R.Seg = static_cast<uint16_t>(Jb.Seg);
      R.Depth = 0;
      R.Parent = RowBase[static_cast<size_t>(J)] + Jb.PendingSrc[I];
      R.Token = Jb.PendingTok[I];
      R.Slot = static_cast<uint16_t>(I);
      Plan.push_back(R);
    }
  }

  // Draft propose loop: forward one depth slice, simulate the selection
  // each proposing job WOULD take if these logits were exact, extend the
  // plan with the proposed rows. Simulations run on copies (constraint
  // cursors included, stats detached) so the real search state only ever
  // advances on full-model logits.
  if (MaxG > 0) {
    auto T0 = std::chrono::steady_clock::now();
    if (Sims.size() < static_cast<size_t>(NJ))
      Sims.resize(static_cast<size_t>(NJ));
    for (int J = 0; J < NJ; ++J) {
      Sim &S = Sims[static_cast<size_t>(J)];
      S.Alive = EffGamma[static_cast<size_t>(J)] > 0;
      if (!S.Alive)
        continue;
      S.Live = *Jobs[J]->Live;
      S.Done = *Jobs[J]->Done;
      S.CC = Jobs[J]->CC ? *Jobs[J]->CC : beamcore::ConstraintCtx();
      S.CC.Stats = nullptr; // The sim must not double-count oracle work.
    }
    size_t DepthLo = 0;
    for (int D = 0;; ++D) {
      size_t DepthHi = Plan.size();
      DraftLogits = Draft.stepDecodeSpec(DraftSt, Plan,
                                         static_cast<int>(DepthLo),
                                         static_cast<int>(DepthHi));
      if (D >= MaxG)
        break; // Deepest rows forwarded for their K/V only.
      for (int J = 0; J < NJ; ++J) {
        Sim &S = Sims[static_cast<size_t>(J)];
        if (D >= EffGamma[static_cast<size_t>(J)] || !S.Alive)
          continue;
        int Off = DepthStart[static_cast<size_t>(J)][static_cast<size_t>(D)] -
                  static_cast<int>(DepthLo);
        const float *LBase = DraftLogits.data();
        auto LF = [&](size_t BI) {
          return LBase + (static_cast<size_t>(Off) + BI) *
                             static_cast<size_t>(Vocab);
        };
        beamcore::SelectResult R = beamcore::selectBeamStep(
            S.Live, S.Done, LF, Vocab, Cfg, Scratch,
            S.CC.active() ? &S.CC : nullptr);
        if (R.StopNow || R.SrcIdx.empty()) {
          // The draft predicts the search ends here; there is nothing to
          // extend, so this is not a countable proposal.
          S.Alive = false;
          continue;
        }
        ++Jobs[J]->Proposed;
        DepthStart[static_cast<size_t>(J)].push_back(
            static_cast<int>(Plan.size()));
        DepthCount[static_cast<size_t>(J)].push_back(
            static_cast<int>(R.SrcIdx.size()));
        for (size_t I = 0; I < R.SrcIdx.size(); ++I) {
          SpecRow Row;
          Row.Seg = static_cast<uint16_t>(Jobs[J]->Seg);
          Row.Depth = D + 1;
          Row.Parent =
              DepthStart[static_cast<size_t>(J)][static_cast<size_t>(D)] +
              R.SrcIdx[I];
          Row.Token = R.Tokens[I];
          Row.Slot = static_cast<uint16_t>(I);
          Plan.push_back(Row);
        }
        Proposals[static_cast<size_t>(J)].push_back(std::move(R));
      }
      if (Plan.size() == DepthHi)
        break; // No job extended: the last slice is already forwarded.
      DepthLo = DepthHi;
    }
    Stats.DraftSeconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
            .count();
  }

  // ONE batched full-model call scores every planned position.
  FullLogits =
      Full.stepDecodeSpec(FullSt, Plan, 0, static_cast<int>(Plan.size()));

  // Verify: replay the exact selection depth by depth on the REAL search
  // state. Accepted depths consume logits already on hand; the first
  // divergence (or the plan running out) yields the next pending
  // selection, and its depth becomes the committed frontier.
  NewRows.clear();
  for (int J = 0; J < NJ; ++J) {
    Job &Jb = *Jobs[J];
    const std::vector<int> &DS = DepthStart[static_cast<size_t>(J)];
    const std::vector<int> &DCt = DepthCount[static_cast<size_t>(J)];
    const std::vector<beamcore::SelectResult> &Props =
        Proposals[static_cast<size_t>(J)];
    int Frontier = 0;
    for (int D = 0;; ++D) {
      int Start = DS[static_cast<size_t>(D)];
      const float *LBase = FullLogits.data();
      auto LF = [&](size_t BI) {
        return LBase +
               (static_cast<size_t>(Start) + BI) * static_cast<size_t>(Vocab);
      };
      beamcore::SelectResult R = beamcore::selectBeamStep(
          *Jb.Live, *Jb.Done, LF, Vocab, Cfg, Scratch, Jb.CC);
      ++Jb.StepsDone;
      if (R.StopNow || R.SrcIdx.empty() || Jb.StepsDone >= Cfg.MaxLen) {
        // Exactly plain decode's loop exits: quota reached (pre-expansion
        // Live kept), every beam retired, or step budget spent (survivors
        // kept for penalized finalization).
        Jb.Finished = true;
        break;
      }
      if (D < static_cast<int>(Props.size()) &&
          R.SrcIdx == Props[static_cast<size_t>(D)].SrcIdx &&
          R.Tokens == Props[static_cast<size_t>(D)].Tokens) {
        ++Jb.Accepted;
        Frontier = D + 1; // The proposed rows ARE this selection's feed.
        continue;
      }
      Jb.PendingSrc = std::move(R.SrcIdx);
      Jb.PendingTok = std::move(R.Tokens);
      Frontier = D;
      break;
    }
    if (!Jb.Finished) {
      for (int I = 0; I < DCt[static_cast<size_t>(Frontier)]; ++I)
        NewRows.push_back(DS[static_cast<size_t>(Frontier)] + I);
      Jb.StateRows = DCt[static_cast<size_t>(Frontier)];
    }
    Stats.Proposed += static_cast<uint64_t>(Jb.Proposed);
    Stats.Accepted += static_cast<uint64_t>(Jb.Accepted);
  }
  ++Stats.Rounds;

  // Both states adopt the accepted frontier in place; finished jobs'
  // rows simply drop (their segments recycle through the usual paths).
  Full.commitSpec(FullSt, Plan, NewRows);
  Draft.commitSpec(DraftSt, Plan, NewRows);
  return static_cast<int>(Plan.size());
}
