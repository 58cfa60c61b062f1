//===- slade-serve.cpp - concurrent decompile serving front end ---------------===//
//
// Serves decompile jobs through the serve::Scheduler: encoder-LRU-cached
// encodes, cross-request batched beam decode, and pooled IO-verification.
// Consumes a JSONL corpus, a list of .s files, or a generated demo corpus,
// and emits per-function JSONL results plus aggregate metrics
// (functions/sec, cache hit rate).
//
// Run: ./build/slade-serve --demo 24 --check
//      ./build/slade-serve --corpus jobs.jsonl --out results.jsonl
//      ./build/slade-serve fn1.s fn2.s ...
//
// Corpus lines: {"name": "f", "asm": "..."}            translate only
//               {"name": "f", "function": "...",
//                "context": "..."}                     compile + IO-verify
//
// Without a trained checkpoint (tools/slade-train), a small throwaway
// system is trained in-process so the tool works out of the box; override
// with SLADE_SERVE_TRAIN_STEPS / SLADE_SERVE_TRAIN_SAMPLES.
//
//===----------------------------------------------------------------------===//

#include "cc/Parser.h"
#include "core/Eval.h"
#include "core/Trainer.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "serve/Engine.h"
#include "serve/Jsonl.h"
#include "serve/Scheduler.h"

#include <algorithm>
#include <chrono>
#include <climits>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <random>
#include <sstream>
#include <thread>

using namespace slade;

namespace {

int envInt(const char *Name, int Default) {
  const char *V = std::getenv(Name);
  return V && *V ? std::atoi(V) : Default;
}

struct CliOptions {
  asmx::Dialect D = asmx::Dialect::X86;
  bool Optimize = false;
  serve::ServeOptions Serve;
  std::string CorpusPath;
  std::vector<std::string> AsmFiles;
  int DemoN = 0;
  int DemoDup = 1; ///< Requests per demo function (duplicate traffic).
  nn::ConstrainMode Constrain = nn::ConstrainMode::Off;
  nn::SpecMode Speculate = nn::SpecMode::Off;
  int EncCacheMb = 0; ///< Encoder-LRU byte budget in MiB (0 = count only).
  int DecCacheMb = 0; ///< Decode-LRU byte budget in MiB (0 = count only).
  bool Sequential = false; ///< Baseline: one Decompiler call per job.
  bool Check = false;      ///< Run batched AND sequential, compare.
  std::string OutPath;
  // -- streaming replay (--stream) --
  bool Stream = false; ///< Replay the corpus with arrival timestamps
                       ///< through the continuous-batching engine.
  double Rate = 0;     ///< Mean Poisson arrivals/sec (0 = jobs over ~1s).
  int MaxLive = 4;     ///< Engine MaxLiveSources (per shard).
  int Shards = 0;      ///< Decode shards (0 = auto: hardware threads).
  int QueueCap = 256;  ///< Engine admission-queue bound.
  uint64_t ArrivalSeed = 42; ///< Poisson arrival RNG seed.
  bool StreamCompare = false; ///< Also replay through the batch-scoped
                              ///< scheduler (greedy batches) and compare
                              ///< latency/throughput.
  // -- overload-safety knobs (stream mode) --
  double DeadlineMs = 0; ///< Per-request deadline from arrival (0 = none).
  bool Shed = false;     ///< Load-shedding admission: a full queue rejects
                         ///< (QueueFull) instead of blocking the producer.
  double DrainMs = -1;   ///< Graceful-drain budget after the last arrival
                         ///< (<0 = unbounded stop()).
  double VerifyTimeoutMs = 0; ///< Per-candidate verify wall budget.
  int VerifyRetries = 0;      ///< Retries for thrown verify attempts.
  // -- deterministic fault injection (default off) --
  uint64_t FaultSeed = 0;
  double FaultEncodeThrow = 0;
  double FaultVerifyThrow = 0;
  double FaultVerifyHang = 0;
  double FaultSlowTick = 0;
  // -- observability (obs/; default off) --
  std::string TraceOut;   ///< Chrome trace_event JSON path ("-" = stdout).
  int TraceSample = 1;    ///< Trace every Nth request (1 = all).
  uint64_t TraceSeed = 0; ///< Deterministic sampling seed.
  std::string MetricsOut; ///< Prometheus exposition path ("-" = stdout).
};

void usage() {
  std::fprintf(
      stderr,
      "usage: slade-serve [options] [file.s ...]\n"
      "  --isa x86|arm        model/compile ISA (default x86)\n"
      "  --opt O0|O3          optimization level (default O0)\n"
      "  --corpus FILE        JSONL corpus of jobs\n"
      "  --demo N             generate an N-function benchmark corpus\n"
      "  --dup F              repeat each demo function F times (models\n"
      "                       duplicate-heavy serving traffic; default 1)\n"
      "  --beam K             beam size (default 5)\n"
      "  --constrain M        off|syntax: grammar-constrained decoding.\n"
      "                       syntax masks vocabulary pieces that cannot\n"
      "                       extend to a parseable C function and kills\n"
      "                       beams with no viable continuation; also\n"
      "                       gates the run: any produced candidate that\n"
      "                       the C frontend rejects is an error\n"
      "                       (default off, byte-identical to before)\n"
      "  --speculate M        off|auto|on: speculative decoding. A\n"
      "                       1-layer int8 draft decoder (distilled at\n"
      "                       startup from the full model) proposes\n"
      "                       several beam steps per round; the full\n"
      "                       model verifies them in one batched call.\n"
      "                       Outputs are byte-identical in every mode;\n"
      "                       auto reverts a request to plain decode\n"
      "                       when its measured acceptance rate is low\n"
      "                       (default off)\n"
      "  --draft-gamma N      draft proposal depth per speculative\n"
      "                       round (default 4)\n"
      "  --maxlen N           max decoded tokens, >= 1 (default 220)\n"
      "  --threads N          worker threads, 0 = hardware (default)\n"
      "  --enc-cache-mb N     cap the encoder-output LRU at N MiB\n"
      "  --dec-cache-mb N     cap the decoded-hypotheses LRU at N MiB\n"
      "                       (streaming engine: repeats that never\n"
      "                       overlap in flight skip their decode)\n"
      "  --shards N           decode shards: independent decode threads,\n"
      "                       each running its own continuous batch\n"
      "                       (default 0 = one per hardware thread,\n"
      "                       capped at 8)\n"
      "  --no-typeinf         disable type inference\n"
      "  --sequential         baseline: sequential Decompiler calls\n"
      "  --check              run batched AND sequential, compare outputs\n"
      "  --out FILE           write per-function results JSONL\n"
      "  --stream             replay the corpus with Poisson arrival\n"
      "                       times through the continuous-batching\n"
      "                       engine; report throughput + latency\n"
      "                       percentiles (p50/p95/p99)\n"
      "  --rate R             mean stream arrivals per second (default:\n"
      "                       all jobs over ~1s)\n"
      "  --live N             engine max live sources per shard\n"
      "                       (default 4)\n"
      "  --queue N            engine admission-queue bound (default 256)\n"
      "  --arrival-seed S     arrival RNG seed (default 42)\n"
      "  --stream-compare     also replay the same arrivals through the\n"
      "                       batch-scoped scheduler, compare latency\n"
      "  --deadline-ms D      per-request deadline, D ms from arrival;\n"
      "                       expired work is shed with a typed\n"
      "                       deadline_expired status (default 0 = none)\n"
      "  --shed               load-shedding admission: a full queue\n"
      "                       rejects (queue_full) instead of blocking\n"
      "                       the producer\n"
      "  --drain-ms D         graceful-drain budget after the last\n"
      "                       arrival; leftover work resolves\n"
      "                       shutting_down (default: unbounded)\n"
      "  --verify-timeout-ms D  per-candidate verify wall budget\n"
      "  --verify-retries N   retries for thrown verify attempts\n"
      "  --fault-seed S       deterministic fault-injection seed\n"
      "  --fault-encode-throw P  P(encode throws) per request\n"
      "  --fault-verify-throw P  P(verify attempt throws) per candidate\n"
      "  --fault-verify-hang P   P(verify attempt hangs) per candidate\n"
      "  --fault-slow-tick P     P(decode tick sleeps) per shard tick\n"
      "  --trace-out FILE     record request-lifecycle spans and write\n"
      "                       Chrome trace_event JSON at exit ('-' =\n"
      "                       stdout; open in Perfetto / chrome://tracing)\n"
      "  --trace-sample N     trace every Nth request, deterministically\n"
      "                       (default 1 = all; shard-tick spans always\n"
      "                       record while tracing is on)\n"
      "  --trace-seed S       trace sampling seed (default 0)\n"
      "  --metrics-out FILE   write the Prometheus text exposition of\n"
      "                       the unified metrics registry ('-' =\n"
      "                       stdout). --stream renders with the engine\n"
      "                       live (full request-outcome families) and\n"
      "                       dumps an extra scrape on SIGUSR1; batch\n"
      "                       modes render at exit\n");
}

/// Strict integer parse: the whole of \p V must be a decimal integer in
/// [Min, INT_MAX].
bool parseIntAtLeast(const char *V, int Min, int *Out) {
  char *End = nullptr;
  long N = std::strtol(V, &End, 10);
  if (End == V || *End != '\0' || N < Min || N > INT_MAX)
    return false;
  *Out = static_cast<int>(N);
  return true;
}

/// Strict number parse: the whole of \p V must be a finite decimal
/// number >= \p Min.
bool parseDoubleAtLeast(const char *V, double Min, double *Out) {
  char *End = nullptr;
  double X = std::strtod(V, &End);
  if (End == V || *End != '\0' || !std::isfinite(X) || X < Min)
    return false;
  *Out = X;
  return true;
}

bool parseArgs(int argc, char **argv, CliOptions *O) {
  // Numeric flags, parsed strictly: a malformed or out-of-range value is
  // a usage error, never a silent 0.
  struct IntFlag {
    const char *Name;
    int Min;
    int *Out;
  };
  const IntFlag IntFlags[] = {
      {"--demo", 0, &O->DemoN},
      {"--dup", 1, &O->DemoDup},
      {"--draft-gamma", 1, &O->Serve.DraftGamma},
      {"--beam", 1, &O->Serve.BeamSize},
      {"--maxlen", 1, &O->Serve.MaxLen},
      {"--threads", 0, &O->Serve.Threads},
      {"--enc-cache-mb", 0, &O->EncCacheMb},
      {"--dec-cache-mb", 0, &O->DecCacheMb},
      {"--shards", 0, &O->Shards},
      {"--live", 1, &O->MaxLive},
      {"--queue", 1, &O->QueueCap},
      {"--verify-retries", 0, &O->VerifyRetries},
      {"--trace-sample", 1, &O->TraceSample},
  };
  struct FloatFlag {
    const char *Name;
    double *Out;
  };
  const FloatFlag FloatFlags[] = {
      {"--rate", &O->Rate},
      {"--deadline-ms", &O->DeadlineMs},
      {"--drain-ms", &O->DrainMs},
      {"--verify-timeout-ms", &O->VerifyTimeoutMs},
      {"--fault-encode-throw", &O->FaultEncodeThrow},
      {"--fault-verify-throw", &O->FaultVerifyThrow},
      {"--fault-verify-hang", &O->FaultVerifyHang},
      {"--fault-slow-tick", &O->FaultSlowTick},
  };
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < argc ? argv[++I] : nullptr;
    };
    const IntFlag *IF = nullptr;
    for (const IntFlag &F : IntFlags)
      if (A == F.Name)
        IF = &F;
    if (IF) {
      const char *V = Next();
      if (!V)
        return false;
      if (!parseIntAtLeast(V, IF->Min, IF->Out)) {
        std::fprintf(stderr, "error: %s must be an integer >= %d\n",
                     IF->Name, IF->Min);
        return false;
      }
      continue;
    }
    const FloatFlag *FF = nullptr;
    for (const FloatFlag &F : FloatFlags)
      if (A == F.Name)
        FF = &F;
    if (FF) {
      const char *V = Next();
      if (!V)
        return false;
      if (!parseDoubleAtLeast(V, 0, FF->Out)) {
        std::fprintf(stderr, "error: %s must be a number >= 0\n",
                     FF->Name);
        return false;
      }
      continue;
    }
    if (A == "--isa") {
      const char *V = Next();
      if (!V)
        return false;
      O->D = std::strcmp(V, "arm") == 0 ? asmx::Dialect::Arm
                                        : asmx::Dialect::X86;
    } else if (A == "--opt") {
      const char *V = Next();
      if (!V)
        return false;
      O->Optimize = std::strcmp(V, "O3") == 0;
    } else if (A == "--corpus") {
      const char *V = Next();
      if (!V)
        return false;
      O->CorpusPath = V;
    } else if (A == "--constrain") {
      const char *V = Next();
      if (!V)
        return false;
      if (std::strcmp(V, "syntax") == 0) {
        O->Constrain = nn::ConstrainMode::Syntax;
      } else if (std::strcmp(V, "off") == 0) {
        O->Constrain = nn::ConstrainMode::Off;
      } else {
        std::fprintf(stderr, "error: --constrain must be off|syntax\n");
        return false;
      }
      O->Serve.Constrain = O->Constrain;
    } else if (A == "--speculate") {
      const char *V = Next();
      if (!V)
        return false;
      if (std::strcmp(V, "on") == 0) {
        O->Speculate = nn::SpecMode::On;
      } else if (std::strcmp(V, "auto") == 0) {
        O->Speculate = nn::SpecMode::Auto;
      } else if (std::strcmp(V, "off") == 0) {
        O->Speculate = nn::SpecMode::Off;
      } else {
        std::fprintf(stderr, "error: --speculate must be off|auto|on\n");
        return false;
      }
      O->Serve.Speculate = O->Speculate;
    } else if (A == "--stream") {
      O->Stream = true;
    } else if (A == "--arrival-seed") {
      const char *V = Next();
      if (!V)
        return false;
      O->ArrivalSeed = static_cast<uint64_t>(std::atoll(V));
    } else if (A == "--stream-compare") {
      O->StreamCompare = true;
    } else if (A == "--shed") {
      O->Shed = true;
    } else if (A == "--fault-seed") {
      const char *V = Next();
      if (!V)
        return false;
      O->FaultSeed = static_cast<uint64_t>(std::atoll(V));
    } else if (A == "--trace-out") {
      const char *V = Next();
      if (!V)
        return false;
      O->TraceOut = V;
    } else if (A == "--trace-seed") {
      const char *V = Next();
      if (!V)
        return false;
      O->TraceSeed = static_cast<uint64_t>(std::atoll(V));
    } else if (A == "--metrics-out") {
      const char *V = Next();
      if (!V)
        return false;
      O->MetricsOut = V;
    } else if (A == "--no-typeinf") {
      O->Serve.UseTypeInference = false;
    } else if (A == "--sequential") {
      O->Sequential = true;
    } else if (A == "--check") {
      O->Check = true;
    } else if (A == "--out") {
      const char *V = Next();
      if (!V)
        return false;
      O->OutPath = V;
    } else if (A == "--help" || A == "-h") {
      usage();
      std::exit(0);
    } else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "error: unknown option %s\n", A.c_str());
      return false;
    } else {
      O->AsmFiles.push_back(A);
    }
  }
  O->Serve.Shards = O->Shards;
  return true;
}

/// Loads the trained checkpoint for the configuration, or trains a small
/// throwaway system so the tool is usable without tools/slade-train.
core::TrainedSystem loadOrTrain(const CliOptions &O) {
  std::string Name = core::systemName("slade", O.D, O.Optimize);
  auto Sys = core::loadSystem(core::checkpointDir(), Name);
  if (Sys)
    return std::move(*Sys);
  std::fprintf(stderr,
               "[serve] no checkpoint %s (%s); training a throwaway "
               "system (run tools/slade-train for the real zoo)\n",
               Name.c_str(), Sys.errorMessage().c_str());
  int Samples = envInt("SLADE_SERVE_TRAIN_SAMPLES", 400);
  int Steps = envInt("SLADE_SERVE_TRAIN_STEPS", 120);
  dataset::Corpus Corpus = dataset::buildCorpus(
      dataset::Suite::ExeBench, static_cast<size_t>(Samples), 0,
      /*Seed=*/20240101);
  core::TrainConfig TC;
  TC.D = O.D;
  TC.Optimize = O.Optimize;
  TC.Steps = Steps;
  TC.Verbose = false;
  return core::trainSystem(
      core::buildTrainPairs(Corpus.Train, O.D, O.Optimize), TC);
}

std::string outcomeJson(const std::string &Name,
                        const core::HypothesisOutcome &Out) {
  std::ostringstream SS;
  SS << "{\"name\": \"" << serve::jsonEscape(Name) << "\""
     << ", \"produced\": " << (Out.Produced ? "true" : "false")
     << ", \"compiles\": " << (Out.Compiles ? "true" : "false")
     << ", \"io_correct\": " << (Out.IOCorrect ? "true" : "false")
     << ", \"typeinf\": " << (Out.UsedTypeInference ? "true" : "false")
     << ", \"edit_sim\": " << Out.EditSim << ", \"c\": \""
     << serve::jsonEscape(Out.CSource) << "\"}";
  return SS.str();
}

void printMetrics(const char *Label, const serve::ServeMetrics &M) {
  std::fprintf(stderr,
               "[%s] %zu functions in %.3fs = %.2f fn/s (encode %.3fs, "
               "decode %.3fs, verify %.3fs; %zu deduped, %zu fused "
               "(width %d, %d shards), encoder cache %llu "
               "hits / %llu misses = %.0f%% hit rate, cold encode %.2f "
               "ms mean, %.1f KiB cached)\n",
               Label, M.Jobs, M.TotalSeconds, M.FunctionsPerSec,
               M.EncodeSeconds, M.DecodeSeconds, M.VerifySeconds,
               M.DecodesDeduped, M.DecodesFused, M.EngineMaxLive,
               M.EngineShards,
               static_cast<unsigned long long>(M.EncoderCacheHits),
               static_cast<unsigned long long>(M.EncoderCacheMisses),
               100.0 * M.EncoderCacheHitRate, M.ColdEncodeMsMean,
               static_cast<double>(M.EncoderCacheBytes) / 1024.0);
  std::fprintf(stderr,
               "[%s] queue wait p50/p95/p99 %.1f/%.1f/%.1f ms, latency "
               "p50/p95/p99 %.1f/%.1f/%.1f ms\n",
               Label, 1e3 * M.QueueWaitP50, 1e3 * M.QueueWaitP95,
               1e3 * M.QueueWaitP99, 1e3 * M.LatencyP50,
               1e3 * M.LatencyP95, 1e3 * M.LatencyP99);
  if (M.TokensMasked + M.BeamsKilled > 0 || M.OracleSeconds > 0)
    std::fprintf(stderr,
                 "[%s] constrain: %llu tokens masked, %llu beams killed, "
                 "oracle %.3fs\n",
                 Label, static_cast<unsigned long long>(M.TokensMasked),
                 static_cast<unsigned long long>(M.BeamsKilled),
                 M.OracleSeconds);
  if (M.SpecRounds > 0)
    std::fprintf(stderr,
                 "[%s] speculate: %llu/%llu proposals accepted (%.0f%%), "
                 "%llu rounds, %llu fallbacks, draft %.3fs\n",
                 Label, static_cast<unsigned long long>(M.DraftAccepted),
                 static_cast<unsigned long long>(M.DraftProposed),
                 100.0 * M.SpecAcceptRate,
                 static_cast<unsigned long long>(M.SpecRounds),
                 static_cast<unsigned long long>(M.SpecFallbacks),
                 M.DraftSeconds);
}

/// One summary JSONL object per scheduler run, written after the
/// per-function results: machine-readable counters that make the
/// encode-bound vs. decode-bound regime visible in the output stream.
std::string metricsJson(const char *Label, const serve::ServeMetrics &M) {
  std::ostringstream SS;
  SS << "{\"type\": \"summary\", \"label\": \"" << serve::jsonEscape(Label)
     << "\", \"jobs\": " << M.Jobs << ", \"fn_per_sec\": "
     << M.FunctionsPerSec << ", \"encode_s\": " << M.EncodeSeconds
     << ", \"decode_s\": " << M.DecodeSeconds << ", \"verify_s\": "
     << M.VerifySeconds << ", \"total_s\": " << M.TotalSeconds
     << ", \"deduped\": " << M.DecodesDeduped << ", \"fused\": "
     << M.DecodesFused << ", \"encoder_cache_hits\": " << M.EncoderCacheHits
     << ", \"encoder_cache_misses\": " << M.EncoderCacheMisses
     << ", \"encoder_hit_rate\": " << M.EncoderCacheHitRate
     << ", \"cold_encode_ms_mean\": " << M.ColdEncodeMsMean
     << ", \"encoder_cache_bytes\": " << M.EncoderCacheBytes
     << ", \"engine_width\": " << M.EngineMaxLive
     << ", \"engine_shards\": " << M.EngineShards
     << ", \"decode_cache_hits\": " << M.DecodeCacheHits
     << ", \"decode_cache_misses\": " << M.DecodeCacheMisses
     << ", \"decode_cache_bytes\": " << M.DecodeCacheBytes
     << ", \"requests_shed\": " << M.RequestsShed
     << ", \"requests_expired\": " << M.RequestsExpired
     << ", \"requests_cancelled\": " << M.RequestsCancelled
     << ", \"requests_failed\": " << M.RequestsFailed
     << ", \"verify_timeouts\": " << M.VerifyTimeouts
     << ", \"verify_retries\": " << M.VerifyRetries
     << ", \"beams_killed\": " << M.BeamsKilled
     << ", \"tokens_masked\": " << M.TokensMasked
     << ", \"oracle_s\": " << M.OracleSeconds
     << ", \"draft_proposed\": " << M.DraftProposed
     << ", \"draft_accepted\": " << M.DraftAccepted
     << ", \"spec_accept_rate\": " << M.SpecAcceptRate
     << ", \"spec_rounds\": " << M.SpecRounds
     << ", \"spec_fallbacks\": " << M.SpecFallbacks
     << ", \"draft_s\": " << M.DraftSeconds
     << ", \"queue_wait_p50_s\": " << M.QueueWaitP50
     << ", \"queue_wait_p95_s\": " << M.QueueWaitP95
     << ", \"queue_wait_p99_s\": " << M.QueueWaitP99
     << ", \"latency_p50_s\": " << M.LatencyP50
     << ", \"latency_p95_s\": " << M.LatencyP95
     << ", \"latency_p99_s\": " << M.LatencyP99 << "}";
  return SS.str();
}

//===----------------------------------------------------------------------===//
// Streaming replay (--stream)
//===----------------------------------------------------------------------===//

/// SIGUSR1 = "scrape now": the stream submit loop checks this between
/// arrivals and writes the Prometheus exposition mid-run (the registry
/// scrape is safe while the engine serves — that coherence is the
/// scrape-during-soak test in test_serve.cpp).
volatile std::sig_atomic_t MetricsDumpRequested = 0;
void onMetricsSignal(int) { MetricsDumpRequested = 1; }

/// One replayed request: a verified task or a raw translate job, with its
/// arrival offset from replay start.
struct StreamItem {
  std::string Name;
  const core::EvalTask *Task = nullptr; ///< Verified when set.
  std::string Asm;                      ///< Translate payload otherwise.
  double ArriveAt = 0;                  ///< Seconds from replay start.
};

/// Deterministic Poisson arrival offsets: exponential inter-arrival
/// times with mean 1/RatePerSec.
void assignArrivals(std::vector<StreamItem> &Items, double RatePerSec,
                    uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::exponential_distribution<double> Exp(RatePerSec);
  double T = 0;
  for (StreamItem &It : Items) {
    T += Exp(Rng);
    It.ArriveAt = T;
  }
}

struct StreamOutcome {
  std::vector<serve::RequestResult> Results; ///< In item order.
  /// SERVED (status ok) requests only: a shed request resolving in
  /// microseconds must not fake a fast percentile. The scheduler
  /// baseline serves everything, so there the vectors cover all items.
  std::vector<double> Latency;   ///< Arrival -> completion, OK only.
  std::vector<double> QueueWait; ///< Arrival -> decode start, OK only.
  double WallSeconds = 0;
  double FnPerSec = 0;
  /// Engine counters at replay end (engine replays only): dedup /
  /// decode-LRU counts and per-shard utilization.
  serve::EngineMetrics Engine;
  bool HasEngine = false;

  /// Percentiles via the serve library's one implementation.
  serve::LatencyStats latency() const {
    return serve::latencyStatsOf(Latency);
  }
  serve::LatencyStats queueWait() const {
    return serve::latencyStatsOf(QueueWait);
  }
};

/// Replays the items through the continuous-batching engine: submit each
/// request at its arrival time, await all completions.
StreamOutcome streamThroughEngine(const core::Decompiler &Slade,
                                  const CliOptions &O,
                                  const std::vector<StreamItem> &Items) {
  serve::EngineOptions EO;
  EO.BeamSize = O.Serve.BeamSize;
  EO.MaxLen = O.Serve.MaxLen;
  EO.UseTypeInference = O.Serve.UseTypeInference;
  EO.VerifyThreads = O.Serve.Threads;
  EO.MaxLiveSources = O.MaxLive;
  EO.Shards = O.Shards;
  EO.QueueCapacity = static_cast<size_t>(O.QueueCap);
  EO.Constrain = O.Constrain;
  EO.Speculate = O.Serve.Speculate;
  EO.DraftGamma = O.Serve.DraftGamma;
  EO.BlockOnFull = !O.Shed;
  EO.VerifyCandidateTimeout = O.VerifyTimeoutMs / 1000.0;
  EO.VerifyMaxRetries = O.VerifyRetries;
  EO.Faults.Seed = O.FaultSeed;
  EO.Faults.EncodeThrow = O.FaultEncodeThrow;
  EO.Faults.VerifyThrow = O.FaultVerifyThrow;
  EO.Faults.VerifyHang = O.FaultVerifyHang;
  EO.Faults.SlowTick = O.FaultSlowTick;
  EO.Metrics = O.Serve.Metrics;

  StreamOutcome SO;
  size_t N = Items.size();
  SO.Results.resize(N);
  SO.Latency.reserve(N);
  SO.QueueWait.reserve(N);
  {
    serve::Engine Eng(Slade, EO);
    std::vector<serve::Handle> Handles(N);
    auto Start = std::chrono::steady_clock::now();
    for (size_t I = 0; I < N; ++I) {
      std::this_thread::sleep_until(
          Start + std::chrono::duration<double>(Items[I].ArriveAt));
      if (MetricsDumpRequested && O.Serve.Metrics) {
        MetricsDumpRequested = 0;
        O.Serve.Metrics->renderPrometheusFile(
            O.MetricsOut.empty() ? "-" : O.MetricsOut);
      }
      serve::DecompileRequest R;
      R.Name = Items[I].Name;
      R.Task = Items[I].Task;
      R.Asm = Items[I].Asm;
      if (Items[I].Task)
        R.Asm = Items[I].Task->Prog.TargetAsm;
      if (O.DeadlineMs > 0)
        R.Deadline = std::chrono::steady_clock::now() +
                     std::chrono::duration_cast<
                         std::chrono::steady_clock::duration>(
                         std::chrono::duration<double>(O.DeadlineMs /
                                                       1000.0));
      Handles[I] = Eng.submit(std::move(R));
    }
    if (O.DrainMs >= 0)
      Eng.drain(std::chrono::steady_clock::now() +
                std::chrono::duration_cast<
                    std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(O.DrainMs / 1000.0)));
    for (size_t I = 0; I < N; ++I) {
      SO.Results[I] = Handles[I].get();
      if (SO.Results[I].ok()) {
        SO.Latency.push_back(SO.Results[I].TotalSeconds);
        SO.QueueWait.push_back(SO.Results[I].QueueWaitSeconds);
      }
    }
    SO.WallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      Start)
            .count();
    SO.Engine = Eng.metrics();
    SO.HasEngine = true;
    if (!O.MetricsOut.empty() && O.Serve.Metrics) {
      // The authoritative scrape: the engine (and its coherent
      // request-outcome collector) is still registered.
      if (!O.Serve.Metrics->renderPrometheusFile(O.MetricsOut))
        std::fprintf(stderr, "error: cannot write %s\n",
                     O.MetricsOut.c_str());
    }
  }
  SO.FnPerSec = SO.WallSeconds > 0
                    ? static_cast<double>(N) / SO.WallSeconds
                    : 0;
  return SO;
}

/// The batch-scoped baseline: the same arrivals served by greedy
/// Scheduler runs — each run takes everything that has arrived, and
/// later arrivals WAIT until the whole run finishes (the straggler
/// effect the engine removes).
StreamOutcome streamThroughScheduler(const core::Decompiler &Slade,
                                     const CliOptions &O,
                                     const std::vector<StreamItem> &Items) {
  serve::Scheduler Sched(Slade, O.Serve);
  StreamOutcome SO;
  size_t N = Items.size();
  SO.Results.resize(N);
  SO.Latency.resize(N);
  SO.QueueWait.resize(N);
  auto Start = std::chrono::steady_clock::now();
  auto Since = [&Start]() {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Start)
        .count();
  };
  size_t I = 0;
  while (I < N) {
    if (Since() < Items[I].ArriveAt)
      std::this_thread::sleep_until(
          Start + std::chrono::duration<double>(Items[I].ArriveAt));
    // Greedy batch: everything that has arrived by now.
    double Now = Since();
    size_t Lo = I;
    while (I < N && Items[I].ArriveAt <= Now)
      ++I;
    double BatchStart = Since();
    std::vector<core::EvalTask> Tasks;
    std::vector<serve::TranslateJob> Jobs;
    for (size_t J = Lo; J < I; ++J) {
      if (Items[J].Task)
        Tasks.push_back(*Items[J].Task);
      else
        Jobs.push_back({Items[J].Name, Items[J].Asm});
    }
    std::vector<core::HypothesisOutcome> TaskOut;
    std::vector<serve::TranslateResult> JobOut;
    if (!Tasks.empty())
      TaskOut = Sched.decompileAll(Tasks);
    if (!Jobs.empty())
      JobOut = Sched.translate(Jobs);
    double BatchEnd = Since();
    size_t TI = 0, JI = 0;
    for (size_t J = Lo; J < I; ++J) {
      serve::RequestResult &R = SO.Results[J];
      R.Name = Items[J].Name;
      if (Items[J].Task) {
        R.Outcome = TaskOut[TI++];
        R.CSource = R.Outcome.CSource;
        R.Verified = true;
      } else {
        R.CSource = JobOut[JI++].CSource;
      }
      SO.QueueWait[J] = BatchStart - Items[J].ArriveAt;
      SO.Latency[J] = BatchEnd - Items[J].ArriveAt;
    }
  }
  SO.WallSeconds = Since();
  SO.FnPerSec =
      SO.WallSeconds > 0 ? static_cast<double>(N) / SO.WallSeconds : 0;
  return SO;
}

void printStreamMetrics(const char *Label, const StreamOutcome &SO) {
  serve::LatencyStats QW = SO.queueWait(), L = SO.latency();
  size_t Served = SO.HasEngine ? SO.Latency.size() : SO.Results.size();
  std::fprintf(
      stderr,
      "[%s] %zu requests (%zu served) in %.3fs = %.2f fn/s; served queue "
      "wait p50/p95/p99 %.1f/%.1f/%.1f ms; served latency p50/p95/p99 "
      "%.1f/%.1f/%.1f ms\n",
      Label, SO.Results.size(), Served, SO.WallSeconds, SO.FnPerSec,
      1e3 * QW.P50, 1e3 * QW.P95, 1e3 * QW.P99, 1e3 * L.P50, 1e3 * L.P95,
      1e3 * L.P99);
  if (!SO.HasEngine)
    return;
  const serve::EngineMetrics &EM = SO.Engine;
  if (EM.Shed + EM.Expired + EM.Cancelled + EM.ShutDown + EM.EncodeFailed +
          EM.VerifyFailed + EM.VerifyTimeouts + EM.VerifyRetries >
      0)
    std::fprintf(stderr,
                 "[%s] shed %zu, expired %zu, cancelled %zu, shutdown "
                 "%zu, encode-failed %zu, verify-failed %zu; verify "
                 "timeouts %llu / retries %llu; drain %.1f ms\n",
                 Label, EM.Shed, EM.Expired, EM.Cancelled, EM.ShutDown,
                 EM.EncodeFailed, EM.VerifyFailed,
                 static_cast<unsigned long long>(EM.VerifyTimeouts),
                 static_cast<unsigned long long>(EM.VerifyRetries),
                 EM.DrainMs);
  if (EM.TokensMasked + EM.BeamsKilled > 0 || EM.OracleSeconds > 0)
    std::fprintf(stderr,
                 "[%s] constrain: %llu tokens masked, %llu beams killed, "
                 "oracle %.3fs\n",
                 Label, static_cast<unsigned long long>(EM.TokensMasked),
                 static_cast<unsigned long long>(EM.BeamsKilled),
                 EM.OracleSeconds);
  if (EM.SpecRounds > 0)
    std::fprintf(
        stderr,
        "[%s] speculate: %llu/%llu proposals accepted (%.0f%%), "
        "%llu rounds, %llu fallbacks, draft %.3fs\n",
        Label, static_cast<unsigned long long>(EM.DraftAccepted),
        static_cast<unsigned long long>(EM.DraftProposed),
        EM.DraftProposed ? 100.0 * static_cast<double>(EM.DraftAccepted) /
                               static_cast<double>(EM.DraftProposed)
                         : 0.0,
        static_cast<unsigned long long>(EM.SpecRounds),
        static_cast<unsigned long long>(EM.SpecFallbacks),
        EM.DraftSeconds);
  std::fprintf(stderr,
               "[%s] %zu attached in flight, %zu verifies coalesced, "
               "decode cache %zu hits / %zu misses (%.1f KiB), encoder "
               "cache %llu hits / %llu misses / %llu evicted (%.1f KiB); "
               "per-shard utilization:",
               Label, EM.InFlightDeduped, EM.VerifyCoalesced,
               EM.DecodeCacheHits, EM.DecodeCacheMisses,
               static_cast<double>(EM.DecodeCacheBytes) / 1024.0,
               static_cast<unsigned long long>(EM.EncoderCacheHits),
               static_cast<unsigned long long>(EM.EncoderCacheMisses),
               static_cast<unsigned long long>(EM.EncoderCacheEvictions),
               static_cast<double>(EM.EncoderCacheBytes) / 1024.0);
  for (size_t S = 0; S < EM.Shards.size(); ++S)
    std::fprintf(stderr, " [%zu] %zu src / %llu ticks / %.3fs", S,
                 EM.Shards[S].Sources,
                 static_cast<unsigned long long>(EM.Shards[S].Steps),
                 EM.Shards[S].DecodeSeconds);
  std::fprintf(stderr, "\n");
}

std::string streamJson(const char *Label, const StreamOutcome &SO) {
  serve::LatencyStats QW = SO.queueWait(), L = SO.latency();
  std::ostringstream SS;
  SS << "{\"type\": \"summary\", \"label\": \"" << serve::jsonEscape(Label)
     << "\", \"jobs\": " << SO.Results.size()
     << ", \"fn_per_sec\": " << SO.FnPerSec
     << ", \"total_s\": " << SO.WallSeconds
     << ", \"queue_wait_p50_s\": " << QW.P50
     << ", \"queue_wait_p95_s\": " << QW.P95
     << ", \"queue_wait_p99_s\": " << QW.P99
     << ", \"latency_p50_s\": " << L.P50
     << ", \"latency_p95_s\": " << L.P95
     << ", \"latency_p99_s\": " << L.P99;
  if (SO.HasEngine) {
    const serve::EngineMetrics &EM = SO.Engine;
    SS << ", \"served\": " << SO.Latency.size()
       << ", \"shed\": " << EM.Shed << ", \"expired\": " << EM.Expired
       << ", \"cancelled\": " << EM.Cancelled
       << ", \"shutdown\": " << EM.ShutDown
       << ", \"encode_failed\": " << EM.EncodeFailed
       << ", \"verify_failed\": " << EM.VerifyFailed
       << ", \"verify_timeouts\": " << EM.VerifyTimeouts
       << ", \"verify_retries\": " << EM.VerifyRetries
       << ", \"drain_ms\": " << EM.DrainMs
       << ", \"beams_killed\": " << EM.BeamsKilled
       << ", \"tokens_masked\": " << EM.TokensMasked
       << ", \"oracle_s\": " << EM.OracleSeconds
       << ", \"draft_proposed\": " << EM.DraftProposed
       << ", \"draft_accepted\": " << EM.DraftAccepted
       << ", \"spec_rounds\": " << EM.SpecRounds
       << ", \"spec_fallbacks\": " << EM.SpecFallbacks
       << ", \"draft_s\": " << EM.DraftSeconds
       << ", \"deduped_in_flight\": " << EM.InFlightDeduped
       << ", \"decode_cache_hits\": " << EM.DecodeCacheHits
       << ", \"decode_cache_misses\": " << EM.DecodeCacheMisses
       << ", \"decode_cache_bytes\": " << EM.DecodeCacheBytes
       << ", \"verify_coalesced\": " << EM.VerifyCoalesced
       << ", \"enc_cache_hits\": " << EM.EncoderCacheHits
       << ", \"enc_cache_misses\": " << EM.EncoderCacheMisses
       << ", \"enc_cache_evictions\": " << EM.EncoderCacheEvictions
       << ", \"enc_cache_bytes\": " << EM.EncoderCacheBytes
       << ", \"shards\": [";
    for (size_t S = 0; S < EM.Shards.size(); ++S) {
      if (S)
        SS << ", ";
      SS << "{\"sources\": " << EM.Shards[S].Sources
         << ", \"steps\": " << EM.Shards[S].Steps
         << ", \"step_rows\": " << EM.Shards[S].StepRows
         << ", \"decode_s\": " << EM.Shards[S].DecodeSeconds << "}";
    }
    SS << "]";
  }
  SS << "}";
  return SS.str();
}

/// Parse-rate gate (--constrain=syntax): every produced candidate that
/// reached IO-verification must be accepted by the C frontend — a
/// constrained decode emitting unparseable C means the oracle mask and
/// the parser disagree, which is a bug, not a quality miss. Unparseable
/// candidates fail the run.
struct ParseGate {
  bool Active = false;
  size_t Checked = 0;
  size_t Failed = 0;

  void check(const std::string &Name, const std::string &CSource) {
    if (!Active || CSource.empty())
      return;
    ++Checked;
    cc::TypeContext Ctx;
    cc::ParseOptions PO;
    PO.Partial = true;
    if (!cc::parseC(CSource, Ctx, PO)) {
      ++Failed;
      std::fprintf(stderr,
                   "[parse-gate] unparseable candidate for %s\n",
                   Name.c_str());
    }
  }

  /// Reports; returns nonzero when any candidate failed to parse.
  int finish() const {
    if (!Active)
      return 0;
    std::fprintf(stderr,
                 "[parse-gate] %zu/%zu produced candidates parse\n",
                 Checked - Failed, Checked);
    if (Failed)
      std::fprintf(stderr,
                   "error: --constrain=syntax produced unparseable C\n");
    return Failed ? 1 : 0;
  }
};

} // namespace

int main(int argc, char **argv) {
  CliOptions O;
  if (!parseArgs(argc, argv, &O)) {
    usage();
    return 1;
  }
  if (O.CorpusPath.empty() && O.AsmFiles.empty() && O.DemoN <= 0) {
    usage();
    return 1;
  }

  // -- assemble the job list --------------------------------------------------
  std::vector<serve::TranslateJob> AsmJobs;
  std::vector<core::EvalTask> Tasks; // Verified (function+context) jobs.
  size_t DemoTasks = 0;              // The first DemoTasks are --demo's.

  if (O.DemoN > 0) {
    std::fprintf(stderr, "[serve] generating %d demo functions...\n",
                 O.DemoN);
    dataset::Corpus Corpus = dataset::buildCorpus(
        dataset::Suite::ExeBench, 0, static_cast<size_t>(O.DemoN),
        /*Seed=*/20240202);
    Tasks = core::buildTasks(Corpus.Test, O.D, O.Optimize);
    DemoTasks = Tasks.size();
  }
  if (!O.CorpusPath.empty()) {
    auto Entries = serve::loadCorpusJsonl(O.CorpusPath);
    if (!Entries) {
      std::fprintf(stderr, "error: %s\n", Entries.errorMessage().c_str());
      return 1;
    }
    std::vector<dataset::Sample> FnSamples;
    for (serve::CorpusEntry &E : *Entries) {
      if (!E.Asm.empty()) {
        AsmJobs.push_back({E.Name, E.Asm});
        continue;
      }
      dataset::Sample S;
      S.Name = E.Name;
      S.FunctionSource = E.Function;
      S.ContextSource = E.Context;
      S.Category = "corpus";
      FnSamples.push_back(std::move(S));
    }
    std::vector<core::EvalTask> FnTasks =
        core::buildTasks(FnSamples, O.D, O.Optimize);
    if (FnTasks.size() < FnSamples.size())
      std::fprintf(stderr,
                   "[serve] %zu corpus function(s) rejected by the "
                   "compiler and skipped\n",
                   FnSamples.size() - FnTasks.size());
    for (core::EvalTask &T : FnTasks)
      Tasks.push_back(std::move(T));
  }
  for (const std::string &Path : O.AsmFiles) {
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "error: cannot open %s\n", Path.c_str());
      return 1;
    }
    std::ostringstream SS;
    SS << In.rdbuf();
    AsmJobs.push_back({Path, SS.str()});
  }
  if (AsmJobs.empty() && Tasks.empty()) {
    std::fprintf(stderr, "error: no servable jobs\n");
    return 1;
  }
  // The verified requests, each naming its task. --dup F requests every
  // demo function F times, as when the same routine recurs across
  // submitted binaries: each request has its own name ("#r") but all of
  // them share the function's one task.
  struct TaskRequest {
    std::string Name;
    const core::EvalTask *Task;
  };
  std::vector<TaskRequest> Requests;
  for (int R = 0; R < O.DemoDup; ++R)
    for (size_t I = 0; I < DemoTasks; ++I)
      Requests.push_back(
          {O.DemoDup > 1 ? Tasks[I].Name + "#" + std::to_string(R)
                         : Tasks[I].Name,
           &Tasks[I]});
  for (size_t I = DemoTasks; I < Tasks.size(); ++I)
    Requests.push_back({Tasks[I].Name, &Tasks[I]});

  // -- model ------------------------------------------------------------------
  core::TrainedSystem Sys = loadOrTrain(O);
  core::Decompiler Slade(std::move(Sys.Tok), std::move(Sys.Model),
                         static_cast<size_t>(O.EncCacheMb) << 20,
                         static_cast<size_t>(O.DecCacheMb) << 20);

  if (O.Speculate != nn::SpecMode::Off) {
    // Distill the 1-layer draft proposer once at startup from this run's
    // own sources (deterministic; nn/DraftModel.h). The draft only ever
    // proposes — every committed step is full-model verified — so a
    // mediocre distillation costs speed, never output bytes.
    std::vector<std::vector<int>> Sources;
    for (const TaskRequest &R : Requests)
      Sources.push_back(Slade.tokenizer().encode(R.Task->Prog.TargetAsm));
    for (const serve::TranslateJob &J : AsmJobs)
      Sources.push_back(Slade.tokenizer().encode(J.Asm));
    size_t Cap = static_cast<size_t>(
        std::max(1, envInt("SLADE_SERVE_DRAFT_SOURCES", 12)));
    if (Sources.size() > Cap)
      Sources.resize(Cap);
    nn::DraftConfig DC;
    DC.Steps = envInt("SLADE_SERVE_DRAFT_STEPS", 120);
    DC.MaxTeacherLen = std::min(
        O.Serve.MaxLen, envInt("SLADE_SERVE_DRAFT_TEACHER_LEN", 96));
    auto T0 = std::chrono::steady_clock::now();
    Slade.attachDraft(std::make_shared<const nn::DraftModel>(
        nn::DraftModel::distill(Slade.model(), Sources, DC)));
    double Secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - T0)
                      .count();
    std::fprintf(stderr,
                 "[serve] distilled draft decoder from %zu source(s) in "
                 "%.2fs (gamma %d)\n",
                 Sources.size(), Secs, O.Serve.DraftGamma);
  }

  // -- observability ----------------------------------------------------------
  // One registry for the whole process: every engine (streaming or inside
  // a Scheduler run) registers its instruments here, so a single scrape
  // covers all of them. Declared before the Scheduler so it outlives
  // every engine that points at it.
  obs::Registry Reg;
  O.Serve.Metrics = &Reg;
  if (!O.TraceOut.empty())
    obs::trace().enable(static_cast<uint32_t>(O.TraceSample), O.TraceSeed);
  if (!O.MetricsOut.empty())
    std::signal(SIGUSR1, onMetricsSignal);
  // Trace export requires quiescence: called only after every engine has
  // been destroyed (stream replay scope / scheduler runs), right before
  // exit.
  auto FinishObs = [&O, &Reg](bool MetricsAlreadyWritten) {
    if (!O.TraceOut.empty()) {
      obs::TraceRecorder &TR = obs::trace();
      TR.disable();
      if (!TR.writeChromeTraceFile(O.TraceOut))
        std::fprintf(stderr, "error: cannot write %s\n",
                     O.TraceOut.c_str());
      else
        std::fprintf(
            stderr,
            "[obs] %zu trace events (%llu dropped), sample 1/%d -> %s\n",
            TR.eventCount(),
            static_cast<unsigned long long>(TR.droppedCount()),
            O.TraceSample, O.TraceOut.c_str());
    }
    if (!O.MetricsOut.empty() && !MetricsAlreadyWritten &&
        !Reg.renderPrometheusFile(O.MetricsOut))
      std::fprintf(stderr, "error: cannot write %s\n",
                   O.MetricsOut.c_str());
  };

  serve::Scheduler Sched(Slade, O.Serve);

  std::ofstream OutFile;
  if (!O.OutPath.empty()) {
    OutFile.open(O.OutPath);
    if (!OutFile) {
      std::fprintf(stderr, "error: cannot write %s\n", O.OutPath.c_str());
      return 1;
    }
  }
  std::ostream &Results = OutFile.is_open()
                              ? static_cast<std::ostream &>(OutFile)
                              : std::cout;

  int ExitCode = 0;
  ParseGate Gate;
  Gate.Active = O.Constrain == nn::ConstrainMode::Syntax;

  // -- streaming replay --------------------------------------------------------
  if (O.Stream) {
    std::vector<StreamItem> Items;
    for (const TaskRequest &R : Requests)
      Items.push_back({R.Name, R.Task, "", 0});
    for (const serve::TranslateJob &J : AsmJobs)
      Items.push_back({J.Name, nullptr, J.Asm, 0});
    double Rate = O.Rate > 0
                      ? O.Rate
                      : static_cast<double>(std::max<size_t>(1, Items.size()));
    assignArrivals(Items, Rate, O.ArrivalSeed);
    std::fprintf(stderr,
                 "[stream] replaying %zu requests, Poisson rate %.1f/s "
                 "(seed %llu), %d shard(s) x %d live sources, queue %d\n",
                 Items.size(), Rate,
                 static_cast<unsigned long long>(O.ArrivalSeed),
                 serve::resolveShardCount(O.Shards), O.MaxLive, O.QueueCap);

    StreamOutcome Eng = streamThroughEngine(Slade, O, Items);
    printStreamMetrics("stream", Eng);

    if (O.StreamCompare) {
      Slade.clearEncoderCache(); // Cold-for-cold, as in the batch modes.
      Slade.clearDecodeCache();  // (The scheduler never consults it, but
                                 // keep the baseline's caches empty.)
      StreamOutcome Batch = streamThroughScheduler(Slade, O, Items);
      printStreamMetrics("stream-batch", Batch);
      double BatchP95 = Batch.latency().P95, EngP95 = Eng.latency().P95;
      std::fprintf(
          stderr,
          "[stream-compare] p95 latency %.1f -> %.1f ms (%.2fx), "
          "throughput %.2f -> %.2f fn/s\n",
          1e3 * BatchP95, 1e3 * EngP95,
          BatchP95 / std::max(1e-9, EngP95), Batch.FnPerSec,
          Eng.FnPerSec);
      Results << streamJson("stream-batch", Batch) << "\n";
    }

    if (O.Check) {
      // Byte-identity oracle: one sequential Decompiler call per request
      // from cold caches — arrival order, shard placement, and row
      // recycling must not change any output. (The sequential path never
      // consults the decode LRU, so a cached-hit result is compared
      // against a genuinely re-decoded one.)
      Slade.clearEncoderCache();
      Slade.clearDecodeCache();
      core::Decompiler::Options DOpts;
      DOpts.BeamSize = O.Serve.BeamSize;
      DOpts.MaxLen = O.Serve.MaxLen;
      DOpts.UseTypeInference = O.Serve.UseTypeInference;
      DOpts.VerifyThreads = 1;
      DOpts.Constrain = O.Constrain;
      size_t Mismatches = 0, Checked = 0;
      for (size_t I = 0; I < Items.size(); ++I) {
        // The oracle covers SERVED requests whose verification ran
        // unimpaired: shed/expired/cancelled requests never produced a
        // payload, and a Degraded result lost a candidate to a
        // contained fault or timeout, so its verify selection may
        // legitimately differ from the unbounded sequential run.
        if (!Eng.Results[I].ok() || Eng.Results[I].Degraded)
          continue;
        ++Checked;
        if (Items[I].Task) {
          core::HypothesisOutcome Seq =
              Slade.decompile(*Items[I].Task, DOpts);
          if (Eng.Results[I].CSource != Seq.CSource ||
              Eng.Results[I].Outcome.IOCorrect != Seq.IOCorrect)
            ++Mismatches;
        } else {
          std::string Seq = Slade.translate(
              Items[I].Asm, O.Serve.BeamSize, O.Serve.MaxLen,
              O.Constrain);
          if (Eng.Results[I].CSource != Seq)
            ++Mismatches;
        }
      }
      std::fprintf(stderr,
                   "[check] %zu/%zu byte-identical outputs (%zu of %zu "
                   "requests served undegraded and checked)\n",
                   Checked - Mismatches, Checked, Checked, Items.size());
      if (Mismatches) {
        std::fprintf(stderr, "error: streamed != sequential outputs\n");
        ExitCode = 1;
      }
    }

    for (size_t I = 0; I < Items.size(); ++I) {
      const serve::RequestResult &R = Eng.Results[I];
      if (!R.ok()) {
        Results << "{\"name\": \"" << serve::jsonEscape(R.Name)
                << "\", \"status\": \""
                << serve::requestStatusName(R.Status) << "\"}\n";
        continue;
      }
      Gate.check(R.Name, R.CSource);
      if (R.Verified)
        Results << outcomeJson(R.Name, R.Outcome) << "\n";
      else
        Results << "{\"name\": \"" << serve::jsonEscape(R.Name)
                << "\", \"c\": \"" << serve::jsonEscape(R.CSource)
                << "\"}\n";
    }
    Results << streamJson("stream", Eng) << "\n";
    if (int GateRc = Gate.finish())
      ExitCode = GateRc;
    FinishObs(/*MetricsAlreadyWritten=*/true);
    return ExitCode;
  }

  // -- verified (full pipeline) jobs ------------------------------------------
  if (!Requests.empty()) {
    // The batch front takes whole tasks: one named copy per request.
    std::vector<core::EvalTask> Batch;
    Batch.reserve(Requests.size());
    for (const TaskRequest &R : Requests) {
      Batch.push_back(*R.Task);
      Batch.back().Name = R.Name;
    }
    std::vector<core::HypothesisOutcome> Served;
    if (!O.Sequential || O.Check)
      Served = Sched.decompileAll(Batch);
    serve::ServeMetrics ServedM = Sched.metrics();
    if (!O.Sequential || O.Check)
      printMetrics("serve", ServedM);

    if (O.Sequential || O.Check) {
      // Baseline: the pre-serving behavior — one Decompiler::decompile
      // call per task, candidates verified sequentially.
      core::Decompiler::Options DOpts;
      DOpts.BeamSize = O.Serve.BeamSize;
      DOpts.MaxLen = O.Serve.MaxLen;
      DOpts.UseTypeInference = O.Serve.UseTypeInference;
      DOpts.VerifyThreads = 1;
      DOpts.Constrain = O.Constrain;
      // Cold-for-cold comparison: the serve run encoded every source
      // already, so drop the cache or the baseline would skip its whole
      // encode phase.
      Slade.clearEncoderCache();
      auto T0 = std::chrono::steady_clock::now();
      std::vector<core::HypothesisOutcome> Seq;
      Seq.reserve(Batch.size());
      for (const core::EvalTask &T : Batch)
        Seq.push_back(Slade.decompile(T, DOpts));
      double Secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        T0)
              .count();
      std::fprintf(stderr,
                   "[sequential] %zu functions in %.3fs = %.2f fn/s\n",
                   Batch.size(), Secs,
                   static_cast<double>(Batch.size()) / Secs);
      if (O.Check) {
        size_t Mismatches = 0;
        for (size_t I = 0; I < Batch.size(); ++I)
          if (Served[I].CSource != Seq[I].CSource ||
              Served[I].IOCorrect != Seq[I].IOCorrect)
            ++Mismatches;
        std::fprintf(stderr,
                     "[check] %zu/%zu byte-identical outputs; speedup "
                     "%.2fx\n",
                     Batch.size() - Mismatches, Batch.size(),
                     Secs / ServedM.TotalSeconds);
        if (Mismatches) {
          std::fprintf(stderr, "error: served != sequential outputs\n");
          ExitCode = 1;
        }
      }
      if (O.Sequential && !O.Check)
        Served = std::move(Seq);
    }

    size_t IOCorrect = 0, Compiles = 0;
    for (size_t I = 0; I < Batch.size(); ++I) {
      Gate.check(Batch[I].Name, Served[I].CSource);
      Results << outcomeJson(Batch[I].Name, Served[I]) << "\n";
      IOCorrect += Served[I].IOCorrect;
      Compiles += Served[I].Compiles;
    }
    if (!O.Sequential || O.Check)
      Results << metricsJson("serve", ServedM) << "\n";
    std::fprintf(stderr,
                 "[serve] IO-correct %zu/%zu (%.1f%%), compiles %zu/%zu\n",
                 IOCorrect, Batch.size(),
                 100.0 * static_cast<double>(IOCorrect) /
                     static_cast<double>(Batch.size()),
                 Compiles, Batch.size());
  }

  // -- raw translation jobs ----------------------------------------------------
  if (!AsmJobs.empty()) {
    std::vector<serve::TranslateResult> Served;
    if (!O.Sequential || O.Check)
      Served = Sched.translate(AsmJobs);
    serve::ServeMetrics ServedM = Sched.metrics();
    if (!O.Sequential || O.Check)
      printMetrics("serve", ServedM);

    if (O.Sequential || O.Check) {
      Slade.clearEncoderCache(); // Cold-for-cold, as above.
      auto T0 = std::chrono::steady_clock::now();
      std::vector<serve::TranslateResult> Seq(AsmJobs.size());
      for (size_t I = 0; I < AsmJobs.size(); ++I) {
        Seq[I].Name = AsmJobs[I].Name;
        Seq[I].CSource = Slade.translate(AsmJobs[I].Asm, O.Serve.BeamSize,
                                         O.Serve.MaxLen, O.Constrain);
      }
      double Secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        T0)
              .count();
      std::fprintf(stderr,
                   "[sequential] %zu functions in %.3fs = %.2f fn/s\n",
                   AsmJobs.size(), Secs,
                   static_cast<double>(AsmJobs.size()) / Secs);
      if (O.Check) {
        size_t Mismatches = 0;
        for (size_t I = 0; I < AsmJobs.size(); ++I)
          if (Served[I].CSource != Seq[I].CSource)
            ++Mismatches;
        std::fprintf(stderr,
                     "[check] %zu/%zu byte-identical outputs; speedup "
                     "%.2fx\n",
                     AsmJobs.size() - Mismatches, AsmJobs.size(),
                     Secs / ServedM.TotalSeconds);
        if (Mismatches) {
          std::fprintf(stderr, "error: served != sequential outputs\n");
          ExitCode = 1;
        }
      }
      if (O.Sequential && !O.Check)
        Served = std::move(Seq);
    }

    for (const serve::TranslateResult &R : Served) {
      Gate.check(R.Name, R.CSource);
      Results << "{\"name\": \"" << serve::jsonEscape(R.Name)
              << "\", \"c\": \"" << serve::jsonEscape(R.CSource) << "\"}\n";
    }
    if (!O.Sequential || O.Check)
      Results << metricsJson("translate", ServedM) << "\n";
  }

  if (int GateRc = Gate.finish())
    ExitCode = GateRc;
  FinishObs(/*MetricsAlreadyWritten=*/false);
  return ExitCode;
}
