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
  // count. The engine runs at its default width and never more shards
  // than it has unique sources.
  int ShardCount =
      std::min(resolveShardCount(Opts.Shards),
               std::max(1, static_cast<int>(UniqueIdx.size())));
  EngineOptions EO;
  EO.BeamSize = Opts.BeamSize;
  EO.MaxLen = Opts.MaxLen;
  EO.UseTypeInference = Opts.UseTypeInference;
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
