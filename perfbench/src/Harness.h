//===- Harness.h - serving-benchmark building blocks ------------*- C++ -*-===//
///
/// \file
/// The parts of the serving benchmark that decide what is measured and how
/// it is summarized, kept apart from slade_bench.cpp so the self-tests can
/// pin them:
///
///  - the tail-percentile rule (the highest percentile with at least ten
///    samples beyond it);
///  - the seeded open-loop arrival schedule and request order;
///  - the input generator, which draws compiled tasks from the corpus
///    generator and, for unique workloads, dedupes them by tokenized
///    source and fails loudly when the draw budget cannot yield enough;
///  - the benchmark's own span log (self time = span - children).
///
//===----------------------------------------------------------------------===//
#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "core/Slade.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of ascending \p Sorted: the sample at index
/// ceil(P * N) - 1 (clamped), so exactly floor(N * (1 - P)) samples lie
/// beyond it when P * N is whole. 0 for an empty input.
double nearestRank(const std::vector<double> &Sorted, double P);

/// Median (nearest-rank P = 0.5) of unsorted samples.
double median(std::vector<double> Samples);

/// The tail a sample supports: the highest of the candidate percentiles
/// (99.9, 99, 98, 95, 90, 75, 50) with at least \p MinBeyond samples
/// beyond it. With fewer samples than that even at p50, p50 is reported.
struct Tail {
  double Percentile = 50; ///< e.g. 99 for p99.
  double Value = 0;
  size_t Beyond = 0; ///< Samples strictly after the chosen rank.
};
Tail tailOf(std::vector<double> Samples, size_t MinBeyond = 10);

/// Open-loop Poisson schedule: \p N arrival offsets in [0, Seconds),
/// ascending. N sorted independent uniforms are the arrival times of a
/// Poisson process conditioned on N arrivals in the window, so every run
/// of a workload sends exactly the same number of requests over exactly
/// the same span. Deterministic in \p Seed.
std::vector<double> arrivalSchedule(uint64_t Seed, size_t N, double Seconds);

/// Seeded Fisher-Yates permutation of 0..N-1.
std::vector<size_t> permutation(uint64_t Seed, size_t N);

/// Draw policy for the input generator.
struct DrawSpec {
  uint64_t Seed = 0;
  slade::asmx::Dialect D = slade::asmx::Dialect::X86;
  bool Optimize = false;
  size_t Want = 0;
  /// Keep only the first task per key (tokenized source). False keeps
  /// the generator's natural repeats.
  bool Unique = true;
  /// Draws allowed before giving up; 0 = 8 * Want + 64.
  size_t MaxDraws = 0;
};

/// The key two requests share exactly when the engine would treat them as
/// the same source (the tokenized assembly, as raw token bytes).
using KeyFn = std::function<std::string(const slade::core::EvalTask &)>;

/// Thrown when a draw budget cannot yield the requested tasks.
struct DrawError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Draws ExeBench-style samples from a SplitMix64 stream seeded with
/// Spec.Seed, compiles each into a task (ground truth + reference IO
/// profile), and returns the first Spec.Want of them. Samples whose key is
/// in \p Exclude are skipped. Throws DrawError when the budget runs out.
std::vector<slade::core::EvalTask>
drawTasks(const DrawSpec &Spec, const KeyFn &Key,
          const std::unordered_set<std::string> *Exclude = nullptr);

/// The benchmark's own spans: name, start, end and parent, recorded
/// around calls into the library. Single-threaded.
class SpanLog {
public:
  using Clock = std::chrono::steady_clock;

  /// Opens a span under the innermost open one; returns its index.
  size_t begin(const std::string &Name);
  /// Closes the innermost open span; returns its duration in seconds.
  double end();

  /// Per span name: summed self time (duration minus the part its
  /// children cover; children never overlap here) and span count.
  struct Self {
    double Seconds = 0;
    double TotalSeconds = 0;
    size_t Count = 0;
  };
  std::map<std::string, Self> selfTimes() const;

  /// Every closed span's duration for \p Name, in seconds.
  std::vector<double> durations(const std::string &Name) const;

private:
  struct Span {
    std::string Name;
    Clock::time_point Start, End;
    long Parent = -1;
  };
  std::vector<Span> Spans;
  std::vector<size_t> Open;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
