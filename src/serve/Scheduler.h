//===- Scheduler.h - batch-scoped client of the serve engine ----*- C++ -*-===//
///
/// \file
/// The batch serving front: accepts N decompile jobs at once and runs
/// them through the streaming engine (serve/Engine.h) as a thin
/// submit-all + drain client —
///
///   dedup      identical tokenized sources decode ONCE (single-flight);
///   decode     every unique source streams through the engine's
///              continuous batch at its default width: up to
///              EngineMaxLive sources' beams fused per step, sources
///              joining/leaving mid-flight as they finish;
///   verify     per-candidate compile + IO-execution fanned out on the
///              worker pool after the decode stage drains (the batch
///              front keeps the two-stage shape; streaming clients that
///              want verify overlapped with decode submit Task requests
///              to the Engine directly), keeping the paper's "first
///              IO-passing candidate in beam order" selection per job.
///
/// Results are deterministic and byte-identical to running the same jobs
/// one at a time through Decompiler::decompile / translate: per-row decode
/// results do not depend on batch composition or row recycling (tested),
/// every job's selection logic is the same code, and results land in
/// request order.
///
//===----------------------------------------------------------------------===//
#ifndef SLADE_SERVE_SCHEDULER_H
#define SLADE_SERVE_SCHEDULER_H

#include "core/Slade.h"
#include "obs/Metrics.h"

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace slade {
namespace serve {

struct ServeOptions {
  int BeamSize = 5; ///< Paper: k = 5.
  int MaxLen = 220;
  bool UseTypeInference = true;
  /// Worker threads for the encode and verify fan-outs (0 = hardware
  /// concurrency).
  int Threads = 0;
  /// Decode shards in the engine (independent decode threads, each with
  /// its own continuous batch). 0 = auto: one per hardware thread
  /// (capped; see serve::resolveShardCount), never more than the run's
  /// unique sources. Sharding is the multi-core decode fan-out: each
  /// shard decodes its own sources in parallel.
  int Shards = 0;
  /// Grammar-constrained decoding (--constrain), forwarded to the
  /// engine. Off is byte-identical to the pre-constraint scheduler.
  nn::ConstrainMode Constrain = nn::ConstrainMode::Off;
  /// Speculative decoding (--speculate), forwarded to the engine.
  /// Requires a draft attached to the decompiler (attachDraft); results
  /// are byte-identical in every mode.
  nn::SpecMode Speculate = nn::SpecMode::Off;
  /// Draft proposal depth per speculative round (--draft-gamma).
  int DraftGamma = 4;
  /// Optional external metrics registry (obs/Metrics.h), forwarded to
  /// every engine this scheduler spins up so one Prometheus scrape
  /// covers the whole process. Must outlive the scheduler's runs; null =
  /// each engine owns a private registry.
  obs::Registry *Metrics = nullptr;
};

/// A raw translation request: assembly text in, C hypothesis out.
struct TranslateJob {
  std::string Name;
  std::string Asm;
};

struct TranslateResult {
  std::string Name;
  std::string CSource; ///< Top beam hypothesis (empty when none).
};

/// Aggregate counters for one scheduler run.
struct ServeMetrics {
  size_t Jobs = 0;
  double EncodeSeconds = 0;
  double DecodeSeconds = 0;
  double VerifySeconds = 0;
  double TotalSeconds = 0;
  double FunctionsPerSec = 0;
  uint64_t EncoderCacheHits = 0;
  uint64_t EncoderCacheMisses = 0;
  /// EncoderLRU hit rate for this run (hits / lookups; 0 when no
  /// lookups). With the graph-free encoder fast path, cold encodes are
  /// the unique-corpus cost driver, so the rate tells encode-bound from
  /// decode-bound regimes at a glance.
  double EncoderCacheHitRate = 0;
  /// Mean wall-clock ms of one LRU-miss encode (the cold-encode cost).
  double ColdEncodeMsMean = 0;
  /// Heap bytes held by the encoder LRU after the run.
  size_t EncoderCacheBytes = 0;
  /// Jobs whose decode was satisfied by another identical job in the
  /// same run (single-flight dedup).
  size_t DecodesDeduped = 0;
  /// Unique jobs that shared at least one engine decode tick with
  /// another source (cross-request fusion).
  size_t DecodesFused = 0;
  /// Per-request queue wait (submit -> admission into a decode row):
  /// percentiles over this run, seconds.
  double QueueWaitP50 = 0, QueueWaitP95 = 0, QueueWaitP99 = 0;
  /// Per-request latency (submit -> request completion) percentiles over
  /// this run, seconds. In batch runs this covers the decode path (the
  /// verify stage is overlapped but job-order collected); slade-serve
  /// --stream reports full end-to-end latency.
  double LatencyP50 = 0, LatencyP95 = 0, LatencyP99 = 0;
  /// Engine width used (max concurrently-live sources PER SHARD).
  int EngineMaxLive = 0;
  /// Decode shards the engine ran this run.
  int EngineShards = 0;
  /// Typed non-Ok resolutions observed this run (serve::RequestStatus).
  /// The batch front submits with no deadlines in blocking mode, so
  /// these stay 0 on a healthy engine — nonzero values surface engine
  /// trouble (a contained encode/verify fault, an unexpected shed) in
  /// the run summary instead of silently yielding empty hypotheses.
  size_t RequestsShed = 0;      ///< QueueFull rejections.
  size_t RequestsExpired = 0;   ///< DeadlineExpired resolutions.
  size_t RequestsCancelled = 0; ///< Cancelled resolutions.
  size_t RequestsFailed = 0;    ///< EncodeFailed + VerifyFailed.
  uint64_t VerifyTimeouts = 0;  ///< Candidates cut by a verify timeout.
  uint64_t VerifyRetries = 0;   ///< Transient verify attempts retried.
  /// Decoded-hypotheses LRU counters. The batch front disables the
  /// cache for its own runs (every unique source decodes, keeping the
  /// run metrics' meaning), so hits here stay 0 — the streaming replay
  /// (slade-serve --stream) is where the cache earns its keep; bytes
  /// report the decompiler-owned cache's current footprint.
  size_t DecodeCacheHits = 0;
  size_t DecodeCacheMisses = 0;
  size_t DecodeCacheBytes = 0;
  /// Grammar-constraint counters (engine pass-through; zero when
  /// Constrain is Off).
  uint64_t BeamsKilled = 0;
  uint64_t TokensMasked = 0;
  double OracleSeconds = 0;
  /// Speculative-decode counters (engine pass-through; zero when
  /// Speculate is Off).
  uint64_t DraftProposed = 0;  ///< Draft-proposed beam steps.
  uint64_t DraftAccepted = 0;  ///< Proposals the full model agreed with.
  uint64_t SpecRounds = 0;     ///< Propose/verify rounds ticked.
  uint64_t SpecFallbacks = 0;  ///< Requests the Auto gate reverted.
  double DraftSeconds = 0;     ///< Time inside draft forward + simulate.
  double SpecAcceptRate = 0;   ///< DraftAccepted / DraftProposed.
};

class Scheduler {
public:
  Scheduler(const core::Decompiler &D, const ServeOptions &Opts);

  /// Translates N assembly jobs (no compile/verify). Results are in job
  /// order and byte-identical to N Decompiler::translate calls.
  std::vector<TranslateResult>
  translate(const std::vector<TranslateJob> &Jobs);

  /// Runs the full pipeline (decode + type inference + compile +
  /// IO-verify) over N prebuilt tasks. Results are in task order and
  /// byte-identical to N sequential Decompiler::decompile calls.
  std::vector<core::HypothesisOutcome>
  decompileAll(const std::vector<core::EvalTask> &Tasks);

  /// Counters from the most recent translate/decompileAll run.
  const ServeMetrics &metrics() const { return M; }

private:
  /// Dedup + engine submit-all/drain for all sources; fills the
  /// encode/decode timing and latency metrics.
  std::vector<std::vector<nn::Hypothesis>>
  decodeAll(const std::vector<std::vector<int>> &Srcs);

  const core::Decompiler &D;
  ServeOptions Opts;
  ThreadPool Pool;
  ServeMetrics M;
};

} // namespace serve
} // namespace slade

#endif // SLADE_SERVE_SCHEDULER_H
