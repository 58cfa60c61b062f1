//===- selftest.cpp - self-tests of the serving benchmark's harness -------===//
//
// Pins the rules the benchmark's numbers depend on: the tail-percentile
// rule, seeded-schedule determinism, and the unique-source generator.
// Exits non-zero on the first failed expectation.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include <cstdio>
#include <cstdlib>
#include <set>

using namespace perfbench;
using namespace slade;

namespace {

int Failures = 0;

void expect(bool Cond, const char *What) {
  if (!Cond) {
    std::fprintf(stderr, "FAIL: %s\n", What);
    ++Failures;
  }
}

std::vector<double> iota(size_t N) {
  std::vector<double> V;
  for (size_t I = 1; I <= N; ++I)
    V.push_back(static_cast<double>(I));
  return V;
}

void percentileRule() {
  // 1000 samples: p99 has exactly 10 samples beyond it.
  Tail T = tailOf(iota(1000));
  expect(T.Percentile == 99 && T.Beyond == 10 && T.Value == 990,
         "p99 is the tail at 1000 samples");
  // 999 samples: p99 would leave 9 beyond, so p98 (19 beyond).
  T = tailOf(iota(999));
  expect(T.Percentile == 98 && T.Beyond == 19, "p98 below 1000 samples");
  // 500 samples: p98 leaves exactly 10.
  T = tailOf(iota(500));
  expect(T.Percentile == 98 && T.Beyond == 10 && T.Value == 490,
         "p98 at 500 samples");
  // 10000 samples: p99.9 leaves exactly 10.
  T = tailOf(iota(10000));
  expect(T.Percentile == 99.9 && T.Beyond == 10, "p99.9 at 10000 samples");
  // Too few samples for any tail: p50.
  T = tailOf(iota(5));
  expect(T.Percentile == 50 && T.Value == 3, "p50 fallback");
  // Order does not matter; the median is nearest-rank.
  std::vector<double> Shuffled = {5, 1, 4, 2, 3};
  expect(median(Shuffled) == 3, "median of shuffled input");
  expect(median({1, 2, 3, 4}) == 2, "nearest-rank median of even count");
  expect(nearestRank({}, 0.5) == 0, "empty input");
}

void scheduleDeterminism() {
  std::vector<double> A = arrivalSchedule(7, 500, 10.0);
  std::vector<double> B = arrivalSchedule(7, 500, 10.0);
  std::vector<double> C = arrivalSchedule(8, 500, 10.0);
  expect(A == B, "same seed, same schedule");
  expect(A != C, "different seed, different schedule");
  expect(A.size() == 500, "exact request count");
  bool Sorted = true, InWindow = true;
  for (size_t I = 0; I < A.size(); ++I) {
    Sorted = Sorted && (I == 0 || A[I - 1] <= A[I]);
    InWindow = InWindow && A[I] >= 0 && A[I] < 10.0;
  }
  expect(Sorted && InWindow, "ascending offsets inside the window");
  // Poisson rate check: the mean gap is Seconds / N within 10%.
  double MeanGap = (A.back() - A.front()) / static_cast<double>(A.size() - 1);
  expect(MeanGap > 0.018 && MeanGap < 0.022, "mean gap matches the rate");

  std::vector<size_t> P = permutation(7, 100), Q = permutation(7, 100);
  expect(P == Q, "same seed, same order");
  expect(P != permutation(9, 100), "different seed, different order");
  std::set<size_t> Uniq(P.begin(), P.end());
  expect(Uniq.size() == 100 && *Uniq.rbegin() == 99, "order is a permutation");
}

void dedupeGenerator() {
  KeyFn Key = [](const core::EvalTask &T) { return T.Prog.TargetAsm; };
  DrawSpec Spec;
  Spec.Seed = 12345;
  Spec.Want = 40;
  std::vector<core::EvalTask> A = drawTasks(Spec, Key);
  std::vector<core::EvalTask> B = drawTasks(Spec, Key);
  expect(A.size() == 40, "draws the requested count");
  std::set<std::string> Keys;
  bool Same = A.size() == B.size();
  for (size_t I = 0; I < A.size(); ++I) {
    Keys.insert(Key(A[I]));
    Same = Same && A[I].Prog.TargetAsm == B[I].Prog.TargetAsm;
  }
  expect(Keys.size() == A.size(), "unique draw has no repeated key");
  expect(Same, "same seed, same sources");

  // Raw draws keep the generator's natural repeats, so over enough draws
  // some key repeats (x86 O0 assembly repeats often); unique draws of the
  // same stream must consume more draws to reach the same count.
  DrawSpec Raw = Spec;
  Raw.Unique = false;
  Raw.Want = 200;
  std::vector<core::EvalTask> R = drawTasks(Raw, Key);
  std::set<std::string> RawKeys;
  for (const core::EvalTask &T : R)
    RawKeys.insert(Key(T));
  expect(R.size() == 200 && RawKeys.size() < R.size(),
         "raw draws keep natural repeats");

  // Excluded keys never come back.
  std::unordered_set<std::string> Exclude(Keys.begin(), Keys.end());
  DrawSpec Next = Spec;
  Next.Want = 10;
  bool Disjoint = true;
  for (const core::EvalTask &T : drawTasks(Next, Key, &Exclude))
    Disjoint = Disjoint && !Exclude.count(Key(T));
  expect(Disjoint, "excluded keys are skipped");

  // A budget that cannot yield enough unique sources fails loudly.
  DrawSpec Tight = Spec;
  Tight.Want = 50;
  Tight.MaxDraws = 20;
  bool Threw = false;
  try {
    drawTasks(Tight, Key);
  } catch (const DrawError &) {
    Threw = true;
  }
  expect(Threw, "short draw budget throws DrawError");
}

void spanSelfTime() {
  SpanLog L;
  L.begin("parent");
  L.begin("child");
  L.end();
  L.begin("child");
  L.end();
  L.end();
  auto S = L.selfTimes();
  expect(S["child"].Count == 2 && S["parent"].Count == 1, "span counts");
  double ChildTotal = S["child"].TotalSeconds;
  double Gap = S["parent"].TotalSeconds - ChildTotal - S["parent"].Seconds;
  expect(Gap > -1e-12 && Gap < 1e-12, "self time = span - children");
}

} // namespace

int main() {
  percentileRule();
  scheduleDeterminism();
  dedupeGenerator();
  spanSelfTime();
  if (Failures) {
    std::fprintf(stderr, "%d self-test expectation(s) failed\n", Failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
