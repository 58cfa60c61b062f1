//===- slade_bench.cpp - one run of one serving-benchmark workload --------===//
//
// Drives the public library API (core::Decompiler, serve::Engine,
// nn::beamSearch, tok::Tokenizer, typeinf, core::compileProgram,
// vm::runProfile) through one workload and prints one JSON object: the
// end-to-end metrics of an untraced timed window, the correctness checks,
// and with --trace 1 the per-layer metrics of a traced rerun plus a staged
// pass over a seeded sample of the workload's sources.
//
// The workloads are the table below, keyed by name; perfbench/run.py
// builds this binary and passes only --workload, --seed, --seconds and
// --trace. See perfbench/README.md for what each workload is for.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "cc/Parser.h"
#include "core/Trainer.h"
#include "nn/DraftModel.h"
#include "obs/Trace.h"
#include "serve/Engine.h"
#include "support/ThreadPool.h"
#include "typeinf/TypeInference.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <memory>
#include <pthread.h>
#include <sched.h>
#include <sstream>
#include <sys/resource.h>
#include <thread>
#include <time.h>

using namespace slade;
using namespace perfbench;
using Clock = std::chrono::steady_clock;

namespace {

double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

double cpuClock(clockid_t Id) {
  timespec TS;
  clock_gettime(Id, &TS);
  return static_cast<double>(TS.tv_sec) +
         1e-9 * static_cast<double>(TS.tv_nsec);
}

/// CPU time of every thread but the calling one: the serving cost,
/// without the load generator's own thread.
double serveCpuSeconds() {
  return cpuClock(CLOCK_PROCESS_CPUTIME_ID) - cpuClock(CLOCK_THREAD_CPUTIME_ID);
}

/// Keeps the load generator off the engine's CPUs. Threads inherit the
/// CPU mask of the thread that creates them, so the engine is started while
/// the main thread runs on every CPU but the first, and the generator moves
/// onto the first CPU for the timed window. Sharing a CPU, waking the
/// dispatcher from submit() preempts the generator for a whole encode and
/// delays the following sends by milliseconds.
class CpuSplit {
public:
  CpuSplit() {
    CPU_ZERO(&All);
    if (sched_getaffinity(0, sizeof(All), &All) != 0 || CPU_COUNT(&All) < 2)
      return;
    Engine = All;
    CPU_ZERO(&Generator);
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &All)) {
        CPU_SET(C, &Generator);
        CPU_CLR(C, &Engine);
        break;
      }
    Split = true;
  }
  void engine() { set(Engine); }
  void generator() { set(Generator); }
  void all() { set(All); }

private:
  void set(const cpu_set_t &Mask) {
    if (Split)
      pthread_setaffinity_np(pthread_self(), sizeof(Mask), &Mask);
  }
  cpu_set_t All, Engine, Generator;
  bool Split = false;
};

/// Keeps every CPU busy for \p Seconds. On a 4-vCPU 2.1 GHz Xeon VM the
/// first run after an idle minute had a 35% longer latency tail than the
/// run right after it (26 vs 19.5 ms p95, same seed); a busy prelude
/// removed the difference.
void warmHost(double Seconds) {
  Clock::time_point End =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Seconds));
  std::vector<std::thread> Spin;
  for (unsigned I = 0; I < std::max(1u, std::thread::hardware_concurrency());
       ++I)
    Spin.emplace_back([End] {
      while (Clock::now() < End) {
      }
    });
  for (std::thread &T : Spin)
    T.join();
}

/// Sleeps to within 2 ms of \p T, then spins: a plain sleep wakes up to
/// several ms late on a virtual machine, and that lateness would land in
/// the measured latency of the request being sent.
void waitUntil(Clock::time_point T) {
  std::this_thread::sleep_until(T - std::chrono::milliseconds(2));
  while (Clock::now() < T) {
  }
}

double peakRssMb() {
  rusage RU;
  getrusage(RUSAGE_SELF, &RU);
  return static_cast<double>(RU.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

/// Set-up repeats whose median is setup_s; a traced run sets up once.
constexpr int SetupRepeats = 5;
/// Warm-up requests, on sources outside the measured set.
constexpr size_t WarmupSources = 16;
/// Distinct sources the staged pass walks through the pipeline.
constexpr size_t StagedSources = 24;
/// Busy prelude before set-up (see warmHost).
constexpr double HostWarmupSeconds = 5;
/// Threads of the sequential reference decodes (after the window).
constexpr unsigned CheckThreads = 4;

struct Json {
  std::ostringstream OS;
  bool First = true;
  Json() { OS << std::setprecision(17) << "{"; }
  void key(const std::string &K) {
    OS << (First ? "" : ", ") << "\"" << K << "\": ";
    First = false;
  }
  void num(const std::string &K, double V) {
    key(K);
    if (std::isfinite(V))
      OS << V;
    else
      OS << "null";
  }
  void str(const std::string &K, const std::string &V) {
    key(K);
    OS << "\"" << V << "\"";
  }
  void raw(const std::string &K, const std::string &V) {
    key(K);
    OS << V;
  }
  std::string done() { return OS.str() + "}"; }
};

/// Open-loop arrival rate, requests per second. Low on purpose: at 20/s
/// latency is mostly service time (see perfbench/README.md).
constexpr double StreamRate = 20;
/// Engine thread counts, fixed (0 would mean "auto" in the engine): the
/// dispatcher, one decode shard and one verify worker, plus the generator
/// thread, make one thread per CPU of a 4-CPU host.
constexpr int Shards = 1;
constexpr int VerifyThreads = 1;

/// One workload. The model's name fixes the ISA and opt level.
struct Workload {
  const char *Name;
  const char *Model;
  bool Burst;           ///< Submit-all rounds instead of an open loop.
  bool Unique;          ///< Dedupe the measured sources.
  size_t BurstSources;  ///< Burst: distinct sources per round.
  int Dup;              ///< Burst: requests per distinct source.
  uint64_t CorpusSeed;  ///< Fixes the workload's source set.
  int Beam;
  nn::ConstrainMode Constrain;
  nn::SpecMode Speculate;
};

// burst-dup's 200 distinct sources fit the default 256-entry decode cache.
const Workload Workloads[] = {
    {"stream-unique", "slade_x86_O0", false, true, 0, 1, 20240303, 5,
     nn::ConstrainMode::Off, nn::SpecMode::Off},
    {"burst-dup", "slade_x86_O0", true, true, 200, 8, 20240505, 5,
     nn::ConstrainMode::Off, nn::SpecMode::Off},
    {"stream-greedy-arm", "slade_arm_O3", false, false, 0, 1, 20240404, 1,
     nn::ConstrainMode::Syntax, nn::SpecMode::Auto},
};

struct Config {
  const Workload *W = nullptr;
  asmx::Dialect D = asmx::Dialect::X86;
  bool Optimize = false;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
};

[[noreturn]] void usageError(const std::string &Msg) {
  std::fprintf(stderr, "slade_bench: %s\n", Msg.c_str());
  std::fprintf(stderr, "usage: slade_bench --workload NAME --seed N "
                       "--seconds S --trace 0|1\n");
  std::exit(2);
}

Config parseArgs(int Argc, char **Argv) {
  Config C;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      usageError("missing value for " + A);
    std::string V = Argv[++I];
    if (A == "--workload") {
      for (const Workload &W : Workloads)
        if (V == W.Name)
          C.W = &W;
      if (!C.W)
        usageError("unknown workload " + V);
    } else if (A == "--seed")
      C.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      C.Seconds = std::atof(V.c_str());
    else if (A == "--trace")
      C.Trace = V == "1";
    else
      usageError("unknown option " + A);
  }
  if (!C.W || C.Seconds <= 0)
    usageError("--workload and a positive --seconds are required");
  std::string Model = C.W->Model;
  C.D = Model.find("_arm_") != std::string::npos ? asmx::Dialect::Arm
                                                 : asmx::Dialect::X86;
  C.Optimize = Model.size() >= 3 && Model.substr(Model.size() - 3) == "_O3";
  return C;
}

std::string workloadJson(const Config &C) {
  const Workload &W = *C.W;
  Json J;
  J.str("model", W.Model);
  J.str("mode", W.Burst ? "burst" : "stream");
  J.raw("unique", W.Unique ? "true" : "false");
  if (W.Burst) {
    J.num("burst_sources", static_cast<double>(W.BurstSources));
    J.num("dup", W.Dup);
  } else {
    J.num("rate", StreamRate);
  }
  J.num("corpus_seed", static_cast<double>(W.CorpusSeed));
  J.num("beam", W.Beam);
  J.str("constrain",
        W.Constrain == nn::ConstrainMode::Syntax ? "syntax" : "off");
  J.str("speculate", W.Speculate == nn::SpecMode::Auto ? "auto" : "off");
  J.num("shards", Shards);
  J.num("verify_threads", VerifyThreads);
  return J.done();
}

/// The key the engine dedupes on: the tokenized source's raw bytes.
std::string sourceKey(const tok::Tokenizer &Tok, const core::EvalTask &T) {
  std::vector<int> Src = Tok.encode(T.Prog.TargetAsm);
  return std::string(reinterpret_cast<const char *>(Src.data()),
                     Src.size() * sizeof(int));
}

/// Everything set-up produces: model, inputs, a started and warmed engine.
/// Declaration order matters: the engine references the decompiler.
struct State {
  std::unique_ptr<core::Decompiler> D;
  std::vector<core::EvalTask> Tasks; ///< The measured source set.
  std::vector<std::string> Keys;     ///< sourceKey of each task.
  std::vector<core::EvalTask> Warm;  ///< Warm-up sources, not measured.
  std::unique_ptr<serve::Engine> Eng;
};

serve::EngineOptions engineOptions(const Config &C) {
  serve::EngineOptions EO;
  EO.BeamSize = C.W->Beam;
  EO.Shards = Shards;
  EO.VerifyThreads = VerifyThreads;
  EO.Constrain = C.W->Constrain;
  EO.Speculate = C.W->Speculate;
  return EO;
}

void startEngine(State &S, const Config &C) {
  S.Eng.reset();
  S.Eng = std::make_unique<serve::Engine>(*S.D, engineOptions(C));
  std::vector<serve::Handle> H;
  for (const core::EvalTask &T : S.Warm) {
    serve::DecompileRequest R;
    R.Name = T.Name;
    R.Task = &T;
    H.push_back(S.Eng->submit(std::move(R)));
  }
  for (serve::Handle &Hd : H)
    if (!Hd.get().ok())
      throw std::runtime_error("warm-up request failed");
}

size_t measuredSources(const Config &C) {
  if (C.W->Burst)
    return C.W->BurstSources;
  return static_cast<size_t>(std::llround(StreamRate * C.Seconds));
}

std::unique_ptr<State> setUp(const Config &C) {
  auto S = std::make_unique<State>();
  auto Sys = core::loadSystem(PERFBENCH_CKPT_DIR, C.W->Model);
  if (!Sys)
    throw std::runtime_error("cannot load checkpoint: " + Sys.errorMessage());
  // The default encoder and decode caches, as slade-serve builds them.
  S->D = std::make_unique<core::Decompiler>(std::move(Sys->Tok),
                                            std::move(Sys->Model));
  const tok::Tokenizer &Tok = S->D->tokenizer();
  KeyFn Key = [&Tok](const core::EvalTask &T) { return sourceKey(Tok, T); };

  DrawSpec Spec;
  Spec.Seed = C.W->CorpusSeed;
  Spec.D = C.D;
  Spec.Optimize = C.Optimize;
  Spec.Want = measuredSources(C);
  Spec.Unique = C.W->Unique;
  S->Tasks = drawTasks(Spec, Key);
  std::unordered_set<std::string> Measured;
  for (const core::EvalTask &T : S->Tasks) {
    S->Keys.push_back(Key(T));
    Measured.insert(S->Keys.back());
  }
  DrawSpec WarmSpec = Spec;
  WarmSpec.Seed = C.W->CorpusSeed ^ 0x77a2b3c4d5e6f701ULL;
  WarmSpec.Want = WarmupSources;
  WarmSpec.Unique = true;
  // Most cheap draws now land on measured sources (x86 O0 assembly
  // repeats often), so the warm-up set gets a far larger draw budget.
  WarmSpec.MaxDraws = 64 * WarmSpec.Want + 4096;
  S->Warm = drawTasks(WarmSpec, Key, &Measured);

  if (C.W->Constrain != nn::ConstrainMode::Off)
    (void)S->D->vocabConstraint();
  if (C.W->Speculate != nn::SpecMode::Off) {
    // Distilled from the warm-up sources only, so the draft never saw a
    // measured source.
    std::vector<std::vector<int>> Sources;
    for (const core::EvalTask &T : S->Warm)
      Sources.push_back(Tok.encode(T.Prog.TargetAsm));
    nn::DraftConfig DC;
    DC.MaxTeacherLen = 96;
    S->D->attachDraft(std::make_shared<const nn::DraftModel>(
        nn::DraftModel::distill(S->D->model(), Sources, DC)));
  }
  startEngine(*S, C);
  return S;
}

/// Counter deltas between two engine snapshots.
struct EngineDelta {
  double Submitted = 0, Completed = 0, Steps = 0, StepRows = 0,
         Attached = 0, CacheHits = 0, EncodeS = 0, DecodeS = 0, VerifyS = 0,
         TokensMasked = 0, OracleS = 0, Proposed = 0, Accepted = 0,
         Fallbacks = 0, DraftS = 0, RowSources = 0, StatusSum = 0;
  double PeakLive = 0;
  std::vector<double> ShardDecodeS;
};

size_t statusSum(const serve::EngineMetrics &M) {
  return M.Ok + M.Shed + M.Expired + M.Cancelled + M.ShutDown +
         M.EncodeFailed + M.VerifyFailed;
}

EngineDelta delta(const serve::EngineMetrics &A,
                  const serve::EngineMetrics &B) {
  auto D = [](double X, double Y) { return Y - X; };
  EngineDelta E;
  E.Submitted = D(A.Submitted, B.Submitted);
  E.Completed = D(A.Completed, B.Completed);
  E.Steps = D(A.Steps, B.Steps);
  E.StepRows = D(A.StepRows, B.StepRows);
  E.Attached = D(A.InFlightDeduped, B.InFlightDeduped);
  E.CacheHits = D(A.DecodeCacheHits, B.DecodeCacheHits);
  E.EncodeS = D(A.EncodeSeconds, B.EncodeSeconds);
  E.DecodeS = D(A.DecodeSeconds, B.DecodeSeconds);
  E.VerifyS = D(A.VerifySeconds, B.VerifySeconds);
  E.TokensMasked = D(A.TokensMasked, B.TokensMasked);
  E.OracleS = D(A.OracleSeconds, B.OracleSeconds);
  E.Proposed = D(A.DraftProposed, B.DraftProposed);
  E.Accepted = D(A.DraftAccepted, B.DraftAccepted);
  E.Fallbacks = D(A.SpecFallbacks, B.SpecFallbacks);
  E.DraftS = D(A.DraftSeconds, B.DraftSeconds);
  E.StatusSum = D(statusSum(A), statusSum(B));
  E.PeakLive = static_cast<double>(B.PeakLiveSources);
  for (size_t I = 0; I < B.Shards.size(); ++I) {
    const serve::ShardUtil &Before =
        I < A.Shards.size() ? A.Shards[I] : serve::ShardUtil();
    E.ShardDecodeS.push_back(B.Shards[I].DecodeSeconds - Before.DecodeSeconds);
    E.RowSources += static_cast<double>(B.Shards[I].Sources - Before.Sources);
  }
  return E;
}

/// One timed window over the workload's request stream.
struct Window {
  std::vector<const core::EvalTask *> Req; ///< Request i's task.
  std::vector<size_t> Src;                 ///< Request i's source index.
  std::vector<double> At;                  ///< Scheduled send offsets.
  std::vector<serve::RequestResult> Res;
  std::vector<double> Latency; ///< Scheduled send -> completion, s.
  std::vector<double> Late;    ///< Actual - scheduled submit, s.
  std::vector<int> Callbacks;  ///< Completion callbacks per request.
  /// One submit-and-await round: requests [Lo, Hi).
  struct Round {
    size_t Lo = 0, Hi = 0;
    double WallS = 0, CpuS = 0; ///< Due start -> last completion.
  };
  std::vector<Round> Rounds;
  double WallS = 0, CpuS = 0, RssMb = 0;
  EngineDelta E;
  nn::EncoderLRU::Stats EncBefore, EncAfter;
};

/// Appends one round's requests to \p W. Open loop: the source set in a
/// seeded order at seeded Poisson times. Burst: every source Dup times in
/// a seeded shuffle, all due at the round's start.
void planRound(const State &S, const Config &C, Window &W, size_t Round) {
  uint64_t Seed = C.Seed + 7919 * Round;
  size_t N = S.Tasks.size();
  std::vector<size_t> Src;
  std::vector<double> At;
  if (C.W->Burst) {
    std::vector<size_t> Copies;
    for (size_t I = 0; I < N; ++I)
      for (int F = 0; F < C.W->Dup; ++F)
        Copies.push_back(I);
    for (size_t P : permutation(Seed, Copies.size()))
      Src.push_back(Copies[P]);
    At.assign(Src.size(), 0.0);
  } else {
    Src = permutation(Seed, N);
    At = arrivalSchedule(Seed, N, C.Seconds);
  }
  for (size_t I = 0; I < Src.size(); ++I) {
    W.Src.push_back(Src[I]);
    W.At.push_back(At[I]);
    W.Req.push_back(&S.Tasks[Src[I]]);
  }
}

/// Submits the requests from \p Lo on, each due at Start + At[i], and
/// waits for all of them. Latency runs from the due time to completion.
void runRound(State &S, Window &W, size_t Lo, Clock::time_point Start,
              SpanLog *Log) {
  size_t N = W.Req.size() - Lo;
  std::vector<Clock::time_point> Done(N);
  std::unique_ptr<std::atomic<int>[]> Calls(new std::atomic<int>[N]());
  std::vector<serve::Handle> H(N);
  auto Due = [&](size_t I) {
    return Start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(W.At[Lo + I]));
  };
  double Cpu0 = serveCpuSeconds();
  for (size_t I = 0; I < N; ++I) {
    waitUntil(Due(I));
    W.Late.push_back(secondsBetween(Due(I), Clock::now()));
    serve::DecompileRequest R;
    R.Name = W.Req[Lo + I]->Name;
    R.Task = W.Req[Lo + I];
    if (Log)
      Log->begin("harness.submit");
    H[I] = S.Eng->submit(std::move(R),
                         [&Done, &Calls, I](const serve::RequestResult &) {
                           Done[I] = Clock::now();
                           Calls[I].fetch_add(1);
                         });
    if (Log)
      Log->end();
  }
  if (Log)
    Log->begin("harness.await");
  for (size_t I = 0; I < N; ++I)
    W.Res.push_back(H[I].get());
  if (Log)
    Log->end();
  Window::Round Rd;
  Rd.Lo = Lo;
  Rd.Hi = Lo + N;
  Rd.CpuS = serveCpuSeconds() - Cpu0;
  Clock::time_point Last = Start;
  for (size_t I = 0; I < N; ++I) {
    W.Latency.push_back(secondsBetween(Due(I), Done[I]));
    W.Callbacks.push_back(Calls[I].load());
    Last = std::max(Last, Done[I]);
  }
  Rd.WallS = secondsBetween(Start, Last);
  W.Rounds.push_back(Rd);
}

/// The timed window. An open loop is one round. A burst repeats rounds,
/// each from cold caches (one batch job each), until Seconds have passed,
/// or exactly \p Rounds rounds when that is nonzero.
void runWindow(State &S, const Config &C, Window &W, SpanLog *Log,
               size_t Rounds = 0) {
  serve::EngineMetrics Before = S.Eng->metrics();
  W.EncBefore = S.D->encoderCache().stats();
  double Cpu0 = serveCpuSeconds();
  Clock::time_point T0 = Clock::now() + std::chrono::milliseconds(2);
  for (size_t R = 0;; ++R) {
    bool TimeLeft = secondsBetween(T0, Clock::now()) < C.Seconds;
    bool More = Rounds ? R < Rounds : R == 0 || (C.W->Burst && TimeLeft);
    if (!More)
      break;
    if (R > 0) {
      S.D->clearDecodeCache();
      S.D->clearEncoderCache();
    }
    size_t Lo = W.Req.size();
    planRound(S, C, W, R);
    runRound(S, W, Lo, R == 0 ? T0 : Clock::now(), Log);
  }
  W.WallS = secondsBetween(T0, Clock::now());
  W.CpuS = serveCpuSeconds() - Cpu0;
  W.RssMb = peakRssMb();
  W.EncAfter = S.D->encoderCache().stats();
  W.E = delta(Before, S.Eng->metrics());
}

struct Checks {
  size_t ExactlyOnceViolations = 0;
  bool AccountingOk = true;
  size_t Compared = 0, Mismatches = 0;
  size_t Parsed = 0, Unparseable = 0;
  size_t StagedCompared = 0, StagedMismatches = 0;
  size_t NotOk = 0;
  bool ok() const {
    return ExactlyOnceViolations == 0 && AccountingOk && Mismatches == 0 &&
           Unparseable == 0 && StagedMismatches == 0 && NotOk == 0;
  }
};

/// The correctness checks, run after the engine has stopped. Every window
/// is checked against one sequential reference per source.
void checkWindows(State &S, const Config &C,
                  const std::vector<const Window *> &Ws, Checks &K) {
  std::vector<char> Need(S.Tasks.size(), 0);
  for (const Window *W : Ws) {
    size_t N = W->Req.size();
    for (size_t I = 0; I < N; ++I) {
      if (W->Callbacks[I] != 1)
        ++K.ExactlyOnceViolations;
      if (!W->Res[I].ok())
        ++K.NotOk;
      else if (!W->Res[I].Degraded)
        Need[W->Src[I]] = 1;
    }
    if (W->E.Submitted != static_cast<double>(N) ||
        W->E.Completed != W->E.Submitted || W->E.StatusSum != W->E.Completed)
      K.AccountingOk = false;
  }

  // Byte identity against a sequential decompile of each source, from a
  // cold encoder cache.
  S.D->clearEncoderCache();
  std::vector<size_t> Todo;
  for (size_t T = 0; T < Need.size(); ++T)
    if (Need[T])
      Todo.push_back(T);
  core::Decompiler::Options DO;
  DO.BeamSize = C.W->Beam;
  DO.VerifyThreads = 1;
  DO.Constrain = C.W->Constrain;
  DO.Speculate = C.W->Speculate;
  std::vector<core::HypothesisOutcome> Seq(S.Tasks.size());
  ThreadPool Pool(CheckThreads);
  Pool.parallelFor(Todo.size(), [&](size_t J) {
    Seq[Todo[J]] = S.D->decompile(S.Tasks[Todo[J]], DO);
  });
  for (const Window *W : Ws)
    for (size_t I = 0; I < W->Req.size(); ++I) {
      const serve::RequestResult &R = W->Res[I];
      if (!R.ok() || R.Degraded)
        continue;
      ++K.Compared;
      const core::HypothesisOutcome &Q = Seq[W->Src[I]];
      if (R.CSource != Q.CSource || R.Outcome.IOCorrect != Q.IOCorrect)
        ++K.Mismatches;
    }

  // Under grammar-constrained decoding every produced candidate parses.
  if (C.W->Constrain != nn::ConstrainMode::Syntax)
    return;
  for (const Window *W : Ws)
    for (const serve::RequestResult &R : W->Res)
      for (const nn::Hypothesis &Hy : R.Hyps) {
        std::string Src = S.D->tokenizer().decode(Hy.Tokens);
        if (Src.empty())
          continue;
        ++K.Parsed;
        cc::TypeContext Ctx;
        cc::ParseOptions PO;
        PO.Partial = true;
        if (!cc::parseC(Src, Ctx, PO))
          ++K.Unparseable;
      }
}

/// End-to-end metrics of one untraced window. Timings are per round and
/// the median over rounds is reported, so one slow stretch of the host
/// does not move a burst run; an open loop is a single round.
void endToEnd(const Window &W, Json &J, Json &Info) {
  std::vector<double> FnPerS, P50, TailV, CpuPerFn;
  Tail T;
  double Io = 0, Sim = 0, Ok = 0;
  for (const Window::Round &Rd : W.Rounds) {
    std::vector<double> Lat;
    for (size_t I = Rd.Lo; I < Rd.Hi; ++I) {
      if (!W.Res[I].ok())
        continue;
      Lat.push_back(W.Latency[I]);
      Io += W.Res[I].Outcome.IOCorrect ? 1 : 0;
      Sim += W.Res[I].Outcome.EditSim;
    }
    double Served = static_cast<double>(Lat.size());
    Ok += Served;
    T = tailOf(Lat);
    FnPerS.push_back(ratio(Served, Rd.WallS));
    P50.push_back(1e3 * median(Lat));
    TailV.push_back(1e3 * T.Value);
    CpuPerFn.push_back(1e3 * ratio(Rd.CpuS, Served));
  }
  double N = static_cast<double>(W.Res.size());
  J.num("fn_per_s", median(FnPerS));
  J.num("latency_p50_ms", median(P50));
  J.num("latency_tail_ms", median(TailV));
  J.num("cpu_ms_per_fn", median(CpuPerFn));
  J.num("peak_rss_mb", W.RssMb);
  J.num("failed_frac", ratio(N - Ok, N));
  J.num("io_accuracy_pct", 100 * ratio(Io, Ok));
  J.num("edit_sim_pct", 100 * ratio(Sim, Ok));
  Info.num("requests", N);
  Info.num("served", Ok);
  Info.num("rounds", static_cast<double>(W.Rounds.size()));
  Info.num("tail_percentile", T.Percentile);
  Info.num("tail_beyond", static_cast<double>(T.Beyond));
  Info.num("wall_s", W.WallS);
}

/// The staged pass: every pipeline stage called directly, in order, on a
/// seeded sample of the workload's distinct sources, each call timed as a
/// span of the benchmark's own. Also cross-checks each selection against
/// what the engine served for that source.
void stagedPass(State &S, const Config &C, const Window &W, Json &L,
                Checks &K) {
  const core::Decompiler &D = *S.D;
  const tok::Tokenizer &Tok = D.tokenizer();
  std::vector<size_t> Order = permutation(C.Seed ^ 0x57a6edULL, S.Tasks.size());
  std::unordered_set<std::string> SeenKey;
  std::vector<size_t> Sample;
  for (size_t I : Order) {
    if (Sample.size() >= StagedSources)
      break;
    if (SeenKey.insert(S.Keys[I]).second)
      Sample.push_back(I);
  }
  nn::BeamConfig BC;
  BC.BeamSize = C.W->Beam;
  if (C.W->Constrain == nn::ConstrainMode::Syntax)
    BC.Constraint = &D.vocabConstraint();
  if (C.W->Speculate != nn::SpecMode::Off && D.draft())
    BC.Draft = &D.draft()->model();

  SpanLog Log;
  double EncTokens = 0, OutTokens = 0, Cands = 0,
         Needed = 0, Compiled = 0, Passed = 0;
  int MaxSrc = D.model().config().MaxLen;
  for (size_t TI : Sample) {
    const core::EvalTask &T = S.Tasks[TI];
    Log.begin("request");
    Log.begin("tok.encode");
    std::vector<int> Src = Tok.encode(T.Prog.TargetAsm);
    Log.end();
    EncTokens += static_cast<double>(std::min<int>(MaxSrc, Src.size()));
    D.clearEncoderCache();
    Log.begin("nn.encode");
    auto Enc = D.encodeCached(Src);
    Log.end();
    Log.begin("nn.decode");
    std::vector<nn::Hypothesis> Hyps = nn::beamSearch(D.model(), Enc, BC);
    Log.end();
    if (!Hyps.empty())
      OutTokens += static_cast<double>(Hyps.front().Tokens.size());
    // Decompiler::decompile's order and rule: candidates in beam order,
    // stopping at the first IO-passing one, else the top one is selected.
    std::string Selected;
    bool SelectedPass = false;
    for (size_t HI = 0; HI < Hyps.size(); ++HI) {
      ++Cands;
      Log.begin("verify.candidate");
      Log.begin("tok.decode");
      std::string Cand = Tok.decode(Hyps[HI].Tokens);
      Log.end();
      bool Pass = false;
      if (!Cand.empty()) {
        Log.begin("typeinf");
        typeinf::InferenceResult Inf =
            typeinf::inferMissingDeclarations(Cand, T.ContextSource);
        Log.end();
        std::string Prelude;
        if (Inf.ParseOk && Inf.NeededInference) {
          Prelude = Inf.Prelude;
          ++Needed;
        }
        Log.begin("core.compile");
        auto Prog = core::compileProgram(Cand, Prelude + T.ContextSource,
                                         T.Prog.Target->Name, T.D,
                                         /*Optimize=*/false);
        Log.end();
        if (Prog) {
          ++Compiled;
          Log.begin("vm.run");
          vm::TestProfile P = vm::runProfile(Prog->Image, *T.Prog.Target,
                                             T.Prog.Globals, T.D,
                                             vm::HarnessConfig());
          Pass = vm::profilesEquivalent(T.RefProfile, P);
          Log.end();
        }
      }
      Log.end();
      if (HI == 0 || Pass)
        Selected = Cand;
      if (Pass) {
        SelectedPass = true;
        ++Passed;
        break;
      }
    }
    Log.end();
    // The engine's selection for the same source, when it served one.
    for (size_t I = 0; I < W.Res.size(); ++I)
      if (W.Src[I] == TI && W.Res[I].ok() && !W.Res[I].Degraded) {
        ++K.StagedCompared;
        if (W.Res[I].CSource != Selected ||
            W.Res[I].Outcome.IOCorrect != SelectedPass)
          ++K.StagedMismatches;
        break;
      }
  }
  auto Ms = [&](const std::string &Name) {
    return 1e3 * median(Log.durations(Name));
  };
  auto Self = Log.selfTimes();
  L.num("nn.encode_ms", Ms("nn.encode"));
  L.num("nn.encode_tokens_per_s",
        ratio(EncTokens, Self["nn.encode"].TotalSeconds));
  L.num("nn.decode_ms", Ms("nn.decode"));
  L.num("nn.decode_ms_per_token",
        1e3 * ratio(Self["nn.decode"].TotalSeconds, OutTokens));
  L.num("nn.output_tokens", OutTokens);
  L.num("tok.encode_ms", Ms("tok.encode"));
  L.num("tok.decode_ms", Ms("tok.decode"));
  L.num("typeinf.ms", Ms("typeinf"));
  L.num("typeinf.needed_frac", ratio(Needed, Cands));
  L.num("core.compile_ms", Ms("core.compile"));
  L.num("core.compile_ok_frac", ratio(Compiled, Cands));
  L.num("core.candidates", Cands);
  L.num("vm.run_ms", Ms("vm.run"));
  L.num("vm.io_pass_frac", ratio(Passed, Compiled));
  // The part of a staged request no child span covers (loop bookkeeping,
  // the encoder-cache clear); large values mean a stage is untimed.
  L.num("harness.staged_untimed_frac",
        ratio(Self["request"].Seconds, Self["request"].TotalSeconds));
}

/// Per-layer metrics a (traced) window yields from the engine's own
/// counters and spans.
void serveLayers(const Window &W, Json &L) {
  const EngineDelta &E = W.E;
  double Ok = 0;
  for (const serve::RequestResult &R : W.Res)
    Ok += R.ok() ? 1 : 0;
  std::vector<double> QueueWait, Dispatch, AdmWait;
  obs::trace().forEachEvent([&](const obs::SpanEvent &Ev, uint32_t) {
    double Ms = 1e-6 * static_cast<double>(Ev.DurNs);
    if (Ev.Kind == obs::SpanKind::QueueWait)
      QueueWait.push_back(Ms);
    else if (Ev.Kind == obs::SpanKind::Dispatch)
      Dispatch.push_back(Ms);
    else if (Ev.Kind == obs::SpanKind::AdmissionWait)
      AdmWait.push_back(Ms);
  });
  double MaxShard = 0, SumShard = 0;
  for (double X : E.ShardDecodeS) {
    MaxShard = std::max(MaxShard, X);
    SumShard += X;
  }
  double MeanShard =
      ratio(SumShard, static_cast<double>(E.ShardDecodeS.size()));
  L.num("serve.queue_wait_p50_ms", median(QueueWait));
  L.num("serve.dispatch_p50_ms", median(Dispatch));
  L.num("serve.admission_wait_p50_ms", median(AdmWait));
  L.num("serve.encode_busy_frac", ratio(E.EncodeS, W.WallS));
  L.num("serve.decode_busy_frac",
        ratio(E.DecodeS, W.WallS * static_cast<double>(Shards)));
  L.num("serve.rows_per_tick", ratio(E.StepRows, E.Steps));
  L.num("serve.ticks_per_request", ratio(E.Steps, E.RowSources));
  L.num("serve.shard_imbalance", ratio(MaxShard, MeanShard));
  L.num("serve.verify_busy_frac",
        ratio(E.VerifyS, W.WallS * static_cast<double>(VerifyThreads)));
  L.num("serve.decode_cache_hit_frac", ratio(E.CacheHits, Ok));
  L.num("serve.inflight_attach_frac", ratio(E.Attached, Ok));
  L.num("serve.peak_live_sources", E.PeakLive);
  double Hits = static_cast<double>(W.EncAfter.Hits - W.EncBefore.Hits);
  double Miss = static_cast<double>(W.EncAfter.Misses - W.EncBefore.Misses);
  L.num("nn.encoder_lru_hit_frac", ratio(Hits, Hits + Miss));
  L.num("nn.spec_accept_frac", ratio(E.Accepted, E.Proposed));
  L.num("nn.spec_proposed", E.Proposed);
  L.num("nn.spec_fallbacks", E.Fallbacks);
  L.num("nn.draft_frac", ratio(E.DraftS, E.DecodeS));
  L.num("tok.mask_frac", ratio(E.OracleS, E.DecodeS));
  L.num("tok.tokens_masked_per_step", ratio(E.TokensMasked, E.StepRows));
  std::vector<double> Late = W.Late;
  std::sort(Late.begin(), Late.end());
  L.num("harness.gen_late_p99_ms", 1e3 * nearestRank(Late, 0.99));
}

std::string checksJson(const Checks &K) {
  Json J;
  J.num("exactly_once_violations",
        static_cast<double>(K.ExactlyOnceViolations));
  J.raw("accounting_ok", K.AccountingOk ? "true" : "false");
  J.num("not_ok", static_cast<double>(K.NotOk));
  J.num("byte_identity_compared", static_cast<double>(K.Compared));
  J.num("byte_identity_mismatches", static_cast<double>(K.Mismatches));
  J.num("candidates_parsed", static_cast<double>(K.Parsed));
  J.num("candidates_unparseable", static_cast<double>(K.Unparseable));
  J.num("staged_compared", static_cast<double>(K.StagedCompared));
  J.num("staged_mismatches", static_cast<double>(K.StagedMismatches));
  return J.done();
}

int run(const Config &C) {
  // -- set-up, several times; the last one serves --------------------------
  std::vector<double> SetupS;
  std::unique_ptr<State> S;
  int Setups = C.Trace ? 1 : SetupRepeats;
  warmHost(HostWarmupSeconds);
  CpuSplit Cpus;
  Cpus.engine();
  for (int I = 0; I < Setups; ++I) {
    S.reset();
    Clock::time_point T0 = Clock::now();
    S = setUp(C);
    SetupS.push_back(secondsBetween(T0, Clock::now()));
  }

  Json Out, E2E, Info, Layers;
  Checks K;
  Window W;
  Cpus.generator();
  runWindow(*S, C, W, nullptr);
  Cpus.engine();
  E2E.num("setup_s", median(SetupS));
  endToEnd(W, E2E, Info);
  Info.num("sources", static_cast<double>(S->Tasks.size()));

  std::vector<const Window *> Checked = {&W};
  Window TW;
  if (C.Trace) {
    // Traced rerun of the same request stream from the same state: cold
    // caches, a fresh warmed engine, every request sampled.
    S->Eng.reset();
    S->D->clearEncoderCache();
    S->D->clearDecodeCache();
    startEngine(*S, C);
    obs::TraceRecorder &TR = obs::trace();
    TR.clear();
    TR.enable(1, C.Seed);
    SpanLog HarnessLog;
    Cpus.generator();
    runWindow(*S, C, TW, &HarnessLog, W.Rounds.size());
    Cpus.engine();
    S->Eng->stop();
    TR.disable();
    serveLayers(TW, Layers);
    double Untraced = ratio(W.CpuS, static_cast<double>(W.Req.size()));
    double Traced = ratio(TW.CpuS, static_cast<double>(TW.Req.size()));
    Layers.num("obs.trace_overhead_pct", 100 * (ratio(Traced, Untraced) - 1));
    Layers.num("obs.trace_dropped", static_cast<double>(TR.droppedCount()));
    std::vector<double> Submit = HarnessLog.durations("harness.submit");
    std::sort(Submit.begin(), Submit.end());
    Layers.num("harness.submit_p99_ms", 1e3 * nearestRank(Submit, 0.99));
    std::string TraceOut = std::string(PERFBENCH_OUT_DIR) + "/trace-" +
                           C.W->Name + "-" + std::to_string(C.Seed) + ".json";
    if (!TR.writeChromeTraceFile(TraceOut))
      std::fprintf(stderr, "slade_bench: cannot write %s\n",
                   TraceOut.c_str());
    Checked.push_back(&TW);
  } else {
    S->Eng->stop();
  }
  Cpus.all();
  checkWindows(*S, C, Checked, K);
  if (C.Trace)
    stagedPass(*S, C, TW, Layers, K);

  Info.raw("workload", workloadJson(C));
  Info.str("compiler", PERFBENCH_COMPILER " (" __VERSION__ ")");
  Info.str("build_type", PERFBENCH_BUILD_TYPE);
  std::ostringstream Each;
  Each << std::setprecision(17) << "[";
  for (size_t I = 0; I < SetupS.size(); ++I)
    Each << (I ? ", " : "") << SetupS[I];
  Info.raw("setup_s_each", Each.str() + "]");

  double Failed = 0;
  for (const serve::RequestResult &R : Checked.back()->Res)
    Failed += R.ok() ? 0 : 1;
  Out.raw("correct", K.ok() ? "true" : "false");
  Out.num("attempted", static_cast<double>(Checked.back()->Res.size()));
  Out.num("failed", Failed);
  Out.raw("end_to_end", E2E.done());
  if (C.Trace)
    Out.raw("per_layer", Layers.done());
  Out.raw("checks", checksJson(K));
  Out.raw("info", Info.done());
  std::printf("%s\n", Out.done().c_str());
  std::fflush(stdout);
  return K.ok() ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Config C = parseArgs(Argc, Argv);
  try {
    return run(C);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "slade_bench: %s\n", E.what());
    return 1;
  }
}
