//===- Harness.cpp - serving-benchmark building blocks --------------------===//

#include "Harness.h"

#include "core/Eval.h"
#include "dataset/Generator.h"
#include "support/RNG.h"

#include <algorithm>
#include <cmath>

using namespace slade;

namespace perfbench {

double nearestRank(const std::vector<double> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  double Rank = std::ceil(P * static_cast<double>(Sorted.size()) - 1e-9);
  size_t Idx = Rank < 1 ? 0 : static_cast<size_t>(Rank) - 1;
  return Sorted[std::min(Idx, Sorted.size() - 1)];
}

double median(std::vector<double> Samples) {
  std::sort(Samples.begin(), Samples.end());
  return nearestRank(Samples, 0.5);
}

Tail tailOf(std::vector<double> Samples, size_t MinBeyond) {
  std::sort(Samples.begin(), Samples.end());
  const double Candidates[] = {0.999, 0.99, 0.98, 0.95, 0.90, 0.75, 0.50};
  double N = static_cast<double>(Samples.size());
  Tail T;
  for (double P : Candidates) {
    size_t Beyond = static_cast<size_t>(std::floor(N * (1 - P) + 1e-9));
    if (Beyond >= MinBeyond || P == 0.50) {
      T.Percentile = 100 * P;
      T.Value = nearestRank(Samples, P);
      T.Beyond = Beyond;
      break;
    }
  }
  return T;
}

std::vector<double> arrivalSchedule(uint64_t Seed, size_t N, double Seconds) {
  SplitMix64 Rng(Seed ^ 0xa55a1f0e5eedULL);
  std::vector<double> At(N);
  for (double &T : At)
    T = Rng.uniform() * Seconds;
  std::sort(At.begin(), At.end());
  return At;
}

std::vector<size_t> permutation(uint64_t Seed, size_t N) {
  SplitMix64 Rng(Seed ^ 0x9e7d0c1a55ULL);
  std::vector<size_t> P(N);
  for (size_t I = 0; I < N; ++I)
    P[I] = I;
  for (size_t I = N; I > 1; --I)
    std::swap(P[I - 1], P[Rng.below(I)]);
  return P;
}

std::vector<core::EvalTask>
drawTasks(const DrawSpec &Spec, const KeyFn &Key,
          const std::unordered_set<std::string> *Exclude) {
  size_t MaxDraws = Spec.MaxDraws ? Spec.MaxDraws : 8 * Spec.Want + 64;
  SplitMix64 Rng(Spec.Seed);
  std::unordered_set<std::string> Seen;
  std::vector<core::EvalTask> Out;
  size_t Draws = 0;
  while (Out.size() < Spec.Want && Draws < MaxDraws) {
    ++Draws;
    dataset::Sample S =
        dataset::generateSample(Rng, dataset::Suite::ExeBench, "");
    std::vector<core::EvalTask> T =
        core::buildTasks({S}, Spec.D, Spec.Optimize);
    if (T.empty())
      continue; // Outside the compilable subset.
    std::string K = Key(T.front());
    if (Exclude && Exclude->count(K))
      continue;
    if (Spec.Unique && !Seen.insert(K).second)
      continue;
    T.front().Name += "@" + std::to_string(Draws);
    Out.push_back(std::move(T.front()));
  }
  if (Out.size() < Spec.Want)
    throw DrawError("generator seed " + std::to_string(Spec.Seed) +
                    " yields only " + std::to_string(Out.size()) + " of " +
                    std::to_string(Spec.Want) +
                    (Spec.Unique ? " unique" : "") + " sources in " +
                    std::to_string(Draws) + " draws");
  return Out;
}

size_t SpanLog::begin(const std::string &Name) {
  Span S;
  S.Name = Name;
  S.Parent = Open.empty() ? -1 : static_cast<long>(Open.back());
  S.Start = Clock::now();
  Spans.push_back(std::move(S));
  Open.push_back(Spans.size() - 1);
  return Spans.size() - 1;
}

double SpanLog::end() {
  if (Open.empty())
    throw std::logic_error("SpanLog::end without an open span");
  Span &S = Spans[Open.back()];
  Open.pop_back();
  S.End = Clock::now();
  return std::chrono::duration<double>(S.End - S.Start).count();
}

std::map<std::string, SpanLog::Self> SpanLog::selfTimes() const {
  std::vector<double> ChildSum(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildSum[static_cast<size_t>(S.Parent)] +=
          std::chrono::duration<double>(S.End - S.Start).count();
  std::map<std::string, Self> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    double Dur =
        std::chrono::duration<double>(Spans[I].End - Spans[I].Start).count();
    Self &E = Out[Spans[I].Name];
    E.TotalSeconds += Dur;
    E.Seconds += Dur - ChildSum[I];
    ++E.Count;
  }
  return Out;
}

std::vector<double> SpanLog::durations(const std::string &Name) const {
  std::vector<double> Out;
  for (const Span &S : Spans)
    if (S.Name == Name)
      Out.push_back(std::chrono::duration<double>(S.End - S.Start).count());
  return Out;
}

} // namespace perfbench
