//===- Scheduler.cpp - batch-scoped client of the serve engine ----------------===//

#include "serve/Scheduler.h"

#include "serve/Engine.h"

#include <algorithm>
#include <chrono>
#include <string_view>
#include <unordered_map>

using namespace slade;
using namespace slade::serve;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

} // namespace

Scheduler::Scheduler(const core::Decompiler &D, const ServeOptions &Opts)
    : D(D), Opts(Opts),
      Pool(Opts.Threads > 0 ? static_cast<unsigned>(Opts.Threads)
                            : ThreadPool::defaultConcurrency()) {}

bool Scheduler::measureFusionWins(
    const std::shared_ptr<const nn::Transformer::EncoderCache> &Enc) {
  // Timing probe only: decode a few steps solo vs. two-way fused and
  // compare the per-source step cost. States are throwaway; the run's
  // already-encoded cache is reused, so the probe costs no encoder pass
  // and touches no LRU statistics.
  const nn::Transformer &Model = D.model();
  int K = std::max(1, Opts.BeamSize);
  int Steps = std::max(4, Opts.FusionProbeSteps);
  auto TimeSteps = [&](int Sources) {
    std::vector<std::shared_ptr<const nn::Transformer::EncoderCache>> Encs(
        static_cast<size_t>(Sources), Enc);
    nn::Transformer::BatchDecodeState St =
        Model.startDecodeBatchMulti(Encs, K, Steps + 2);
    Model.stepDecodeBatch(
        St, std::vector<int>(static_cast<size_t>(Sources),
                             nn::Transformer::BosId));
    std::vector<int> Grow; // Expand every source to its full K rows.
    for (int S = 0; S < Sources; ++S)
      for (int B = 0; B < K; ++B)
        Grow.push_back(S);
    Model.reorderBeams(St, Grow);
    std::vector<int> Tokens(Grow.size(), nn::Transformer::BosId);
    auto T0 = std::chrono::steady_clock::now();
    for (int S = 0; S < Steps; ++S)
      Model.stepDecodeBatch(St, Tokens);
    return secondsSince(T0);
  };
  TimeSteps(1); // Warm caches/scratch so the timed passes compare fair.
  double Solo = TimeSteps(1);
  double FusedPerSource = TimeSteps(2) / 2.0;
  return FusedPerSource < Solo * 0.95;
}

int Scheduler::engineWidth(
    const std::vector<std::vector<int>> &Srcs,
    const std::vector<size_t> &UniqueIdx,
    const std::vector<std::shared_ptr<const nn::Transformer::EncoderCache>>
        &Encs,
    int ShardCount) {
  if (!Opts.BatchDecode || Opts.BeamSize < 1)
    return 1;
  if (Opts.DecodeBatch > 0)
    return Opts.DecodeBatch;
  // A run with fewer than two unique sources cannot fuse anything:
  // width 1, and no probe (the decision stays unmeasured for a run
  // that could actually use it).
  if (UniqueIdx.size() < 2)
    return 1;
  // AUTO: measured once per (weight version, beam width, shard count),
  // then cached — repeated runs (the steady-state serving case) never
  // re-probe, while a topology change re-measures (N shards share the
  // memory system, which shifts the fused-vs-solo tradeoff). The
  // decision is purely about speed; results are batch-invariant.
  std::tuple<uint64_t, int, int> Key{D.model().weightVersion(),
                                     Opts.BeamSize, ShardCount};
  auto It = FusionDecisions.find(Key);
  bool Fuse;
  if (It != FusionDecisions.end()) {
    Fuse = It->second;
  } else {
    // Probe the MEDIAN-length source so the decision represents the
    // run's typical request, not its best case (fusion wins shrink as
    // sources grow — bench/README.md).
    std::vector<size_t> ByLen;
    for (size_t U = 0; U < UniqueIdx.size(); ++U)
      if (!Srcs[UniqueIdx[U]].empty())
        ByLen.push_back(U);
    if (ByLen.empty())
      return 1; // Nothing to probe; decide again on a real run.
    std::sort(ByLen.begin(), ByLen.end(), [&](size_t A, size_t B) {
      return Srcs[UniqueIdx[A]].size() < Srcs[UniqueIdx[B]].size();
    });
    Fuse = measureFusionWins(Encs[ByLen[ByLen.size() / 2]]);
    FusionDecisions.emplace(Key, Fuse);
    ++M.FusionProbes;
  }
  if (!Fuse)
    return 1;
  // Target ~8 GEMM rows per fused step, at least two-way fusion.
  return std::max(2, 8 / std::max(1, Opts.BeamSize));
}

std::vector<std::vector<nn::Hypothesis>>
Scheduler::decodeAll(const std::vector<std::vector<int>> &Srcs) {
  nn::EncoderLRU::Stats Before = D.encoderCache().stats();

  // Single-flight: identical tokenized sources decode ONCE. Serving
  // corpora repeat functions heavily (the same routine recurs across
  // binaries — the duplication §V-A dedups at training time), and a
  // repeated request's hypotheses are identical by determinism, so every
  // duplicate after the first is free.
  std::vector<size_t> JobToUnique(Srcs.size());
  std::vector<size_t> UniqueIdx; // Unique job index -> first Srcs index.
  {
    std::unordered_map<std::string_view, size_t> Seen;
    for (size_t I = 0; I < Srcs.size(); ++I) {
      std::string_view Key(
          reinterpret_cast<const char *>(Srcs[I].data()),
          Srcs[I].size() * sizeof(int));
      auto [It, Inserted] = Seen.emplace(Key, UniqueIdx.size());
      if (Inserted)
        UniqueIdx.push_back(I);
      JobToUnique[I] = It->second;
    }
  }
  M.DecodesDeduped += Srcs.size() - UniqueIdx.size();

  // Encode stage: per-source encoder passes through the shared LRU,
  // fanned out on the worker pool (the engine's decode thread then
  // admits the pre-encoded caches without stalling a tick on a cold
  // encode).
  auto TE = std::chrono::steady_clock::now();
  std::vector<std::shared_ptr<const nn::Transformer::EncoderCache>> Encs(
      UniqueIdx.size());
  Pool.parallelFor(UniqueIdx.size(), [&](size_t U) {
    Encs[U] = D.encodeCached(Srcs[UniqueIdx[U]]);
  });
  M.EncodeSeconds += secondsSince(TE);

  // Thin client of the streaming engine: submit every unique source,
  // then drain futures in order. The engine spreads unique sources over
  // its decode shards (multi-core fan-out — the per-group parallelism
  // unfusable workloads need), admits up to EngineMaxLive sources into
  // each shard's continuous batch, and recycles rows as sources finish,
  // so a straggler never stalls the others. Per-source results are
  // byte-identical to solo beamSearch regardless of width or shard
  // count.
  // The fusion decision is keyed by the RESOLVED topology (so varying
  // corpus sizes share one cached probe); the engine itself never runs
  // more shards than it has unique sources.
  int ResolvedShards = resolveShardCount(Opts.Shards);
  int ShardCount = std::min(
      ResolvedShards, std::max(1, static_cast<int>(UniqueIdx.size())));
  EngineOptions EO;
  EO.BeamSize = Opts.BeamSize;
  EO.MaxLen = Opts.MaxLen;
  EO.UseTypeInference = Opts.UseTypeInference;
  EO.MaxLiveSources = engineWidth(Srcs, UniqueIdx, Encs, ResolvedShards);
  EO.Shards = ShardCount;
  // The batch front dedups its corpus up front and reports per-run
  // decode costs; a cross-run hypotheses cache would silently turn
  // "decode" runs into lookups, so it stays off here (the streaming
  // engine is where the decode LRU closes the non-overlapping-repeat
  // regime).
  EO.UseDecodeCache = false;
  EO.QueueCapacity = std::max<size_t>(1, UniqueIdx.size());
  EO.Constrain = Opts.Constrain;
  EO.Speculate = Opts.Speculate;
  EO.DraftGamma = Opts.DraftGamma;
  EO.Metrics = Opts.Metrics;
  M.EngineMaxLive = EO.MaxLiveSources;
  M.EngineShards = ShardCount;

  std::vector<std::vector<nn::Hypothesis>> Unique(UniqueIdx.size());
  {
    Engine Eng(D, EO);
    std::vector<Handle> Handles;
    Handles.reserve(UniqueIdx.size());
    for (size_t U = 0; U < UniqueIdx.size(); ++U) {
      DecompileRequest R;
      R.Src = Srcs[UniqueIdx[U]];
      R.Enc = Encs[U];
      Handles.push_back(Eng.submit(std::move(R)));
    }
    for (size_t U = 0; U < UniqueIdx.size(); ++U) {
      // Typed-outcome path: a non-Ok resolution (contained encode
      // fault, shed, ...) yields empty hypotheses for that source AND
      // shows up in the run counters below — never an exception, never
      // a silent mystery.
      RequestResult Res = Handles[U].get();
      Unique[U] = std::move(Res.Hyps);
    }

    EngineMetrics EM = Eng.metrics();
    M.EncodeSeconds += EM.EncodeSeconds;
    M.DecodeSeconds += EM.DecodeSeconds;
    M.DecodesFused += EM.FusedJobs;
    M.RequestsShed += EM.Shed;
    M.RequestsExpired += EM.Expired;
    M.RequestsCancelled += EM.Cancelled;
    M.RequestsFailed += EM.EncodeFailed + EM.VerifyFailed;
    M.VerifyTimeouts += EM.VerifyTimeouts;
    M.VerifyRetries += EM.VerifyRetries;
    M.DecodeCacheHits += EM.DecodeCacheHits;
    M.DecodeCacheMisses += EM.DecodeCacheMisses;
    M.DecodeCacheBytes = EM.DecodeCacheBytes;
    M.BeamsKilled += EM.BeamsKilled;
    M.TokensMasked += EM.TokensMasked;
    M.OracleSeconds += EM.OracleSeconds;
    M.DraftProposed += EM.DraftProposed;
    M.DraftAccepted += EM.DraftAccepted;
    M.SpecRounds += EM.SpecRounds;
    M.SpecFallbacks += EM.SpecFallbacks;
    M.DraftSeconds += EM.DraftSeconds;
    M.SpecAcceptRate =
        M.DraftProposed ? static_cast<double>(M.DraftAccepted) /
                              static_cast<double>(M.DraftProposed)
                        : 0.0;
    M.QueueWaitP50 = EM.QueueWait.P50;
    M.QueueWaitP95 = EM.QueueWait.P95;
    M.QueueWaitP99 = EM.QueueWait.P99;
    M.LatencyP50 = EM.Latency.P50;
    M.LatencyP95 = EM.Latency.P95;
    M.LatencyP99 = EM.Latency.P99;
  }

  nn::EncoderLRU::Stats After = D.encoderCache().stats();
  uint64_t DHits = After.Hits - Before.Hits;
  uint64_t DMisses = After.Misses - Before.Misses;
  M.EncoderCacheHits += DHits;
  M.EncoderCacheMisses += DMisses;
  uint64_t Lookups = M.EncoderCacheHits + M.EncoderCacheMisses;
  M.EncoderCacheHitRate =
      Lookups ? static_cast<double>(M.EncoderCacheHits) /
                    static_cast<double>(Lookups)
              : 0.0;
  if (DMisses)
    M.ColdEncodeMsMean = (After.MissSeconds - Before.MissSeconds) * 1000.0 /
                         static_cast<double>(DMisses);
  M.EncoderCacheBytes = D.encoderCache().bytesUsed();

  std::vector<std::vector<nn::Hypothesis>> Hyps(Srcs.size());
  for (size_t I = 0; I < Srcs.size(); ++I)
    Hyps[I] = Unique[JobToUnique[I]]; // Last ref could move; copies are
                                      // cheap next to a decode.
  return Hyps;
}

std::vector<TranslateResult>
Scheduler::translate(const std::vector<TranslateJob> &Jobs) {
  M = ServeMetrics();
  M.Jobs = Jobs.size();
  auto T0 = std::chrono::steady_clock::now();

  const tok::Tokenizer &Tok = D.tokenizer();
  std::vector<std::vector<int>> Srcs(Jobs.size());
  Pool.parallelFor(Jobs.size(),
                   [&](size_t I) { Srcs[I] = Tok.encode(Jobs[I].Asm); });

  std::vector<std::vector<nn::Hypothesis>> Hyps = decodeAll(Srcs);

  std::vector<TranslateResult> Out(Jobs.size());
  for (size_t I = 0; I < Jobs.size(); ++I) {
    Out[I].Name = Jobs[I].Name;
    if (!Hyps[I].empty())
      Out[I].CSource = Tok.decode(Hyps[I].front().Tokens);
  }
  M.TotalSeconds = secondsSince(T0);
  M.FunctionsPerSec =
      M.TotalSeconds > 0 ? static_cast<double>(M.Jobs) / M.TotalSeconds : 0;
  return Out;
}

std::vector<core::HypothesisOutcome>
Scheduler::decompileAll(const std::vector<core::EvalTask> &Tasks) {
  M = ServeMetrics();
  M.Jobs = Tasks.size();
  auto T0 = std::chrono::steady_clock::now();

  const tok::Tokenizer &Tok = D.tokenizer();
  std::vector<std::vector<int>> Srcs(Tasks.size());
  Pool.parallelFor(Tasks.size(), [&](size_t I) {
    Srcs[I] = Tok.encode(Tasks[I].Prog.TargetAsm);
  });

  std::vector<std::vector<nn::Hypothesis>> Hyps = decodeAll(Srcs);

  // Verify stage: one worker per job; within a job, candidates are tried
  // sequentially in beam order with early exit on the first IO pass —
  // exactly Decompiler::decompile's sequential selection, so per-job
  // outcomes are byte-identical to a one-at-a-time run. (Streaming
  // clients that want verification overlapped with decode submit Task
  // requests to the Engine directly; the batch scheduler keeps the
  // two-stage shape.)
  auto TV = std::chrono::steady_clock::now();
  std::vector<core::HypothesisOutcome> Out(Tasks.size());
  Pool.parallelFor(Tasks.size(), [&](size_t I) {
    core::HypothesisOutcome First;
    bool HaveFirst = false;
    for (const nn::Hypothesis &H : Hyps[I]) {
      std::string CSource = Tok.decode(H.Tokens);
      core::HypothesisOutcome O = core::evaluateHypothesis(
          Tasks[I], CSource, Opts.UseTypeInference);
      if (!HaveFirst) {
        First = O;
        HaveFirst = true;
      }
      if (O.IOCorrect) {
        Out[I] = O; // First candidate passing the IO tests (§VI-A).
        return;
      }
    }
    Out[I] = First; // None passed: report the top beam candidate.
  });
  M.VerifySeconds = secondsSince(TV);
  M.TotalSeconds = secondsSince(T0);
  M.FunctionsPerSec =
      M.TotalSeconds > 0 ? static_cast<double>(M.Jobs) / M.TotalSeconds : 0;
  return Out;
}
