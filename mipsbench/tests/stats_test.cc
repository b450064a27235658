// Tests of the benchmark's own arithmetic: nearest-rank percentiles,
// medians, the Poisson schedule, latency charged from the intended
// arrival, generator lateness, the serving limit, closed-loop capacity,
// and the brute-force reference of the correctness gate.  Plain
// asserts-with-messages so the test needs nothing beyond the library.

#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "gate.h"
#include "linalg/gemm.h"
#include "linalg/matrix.h"
#include "stats.h"
#include "trace.h"

namespace {

int g_failures = 0;

void Expect(bool condition, const char* what, int line) {
  if (!condition) {
    std::fprintf(stderr, "FAILED line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

using namespace mipsbench;

void TestPercentiles() {
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT(Percentile(ten, 0.5) == 5);    // rank ceil(5) = 5
  EXPECT(Percentile(ten, 0.99) == 10);  // rank ceil(9.9) = 10
  EXPECT(Percentile(ten, 0.9) == 9);    // rank 9
  EXPECT(Percentile(ten, 0.0) == 1);
  EXPECT(Percentile(ten, 1.0) == 10);
  EXPECT(Percentile({}, 0.5) == 0);
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT(Percentile(hundred, 0.99) == 99);
  EXPECT(Percentile(hundred, 0.50) == 50);
  EXPECT(Median({3, 1, 2}) == 2);
  EXPECT(Median({4, 1, 3, 2}) == 2.5);
  EXPECT(Median({}) == 0);
}

void TestSchedule() {
  const std::vector<double> a = PoissonSchedule(1000, 2.0, 42);
  const std::vector<double> b = PoissonSchedule(1000, 2.0, 42);
  const std::vector<double> c = PoissonSchedule(1000, 2.0, 43);
  EXPECT(a == b);
  EXPECT(a != c);
  EXPECT(a.size() > 1800 && a.size() < 2200);
  bool ascending = true;
  for (std::size_t i = 1; i < a.size(); ++i) ascending &= a[i] > a[i - 1];
  EXPECT(ascending);
  EXPECT(a.back() < 2.0);
  EXPECT(PoissonSchedule(0, 1.0, 1).empty());
}

void TestLatencyFromIntendedArrival() {
  // Request 1 is sent 30 ms late because request 0 stalled the
  // generator: its latency counts the stall.
  std::vector<RequestTiming> t(3);
  t[0] = {0.000, 0.000, 0.040, true};
  t[1] = {0.010, 0.040, 0.045, true};
  t[2] = {0.020, 0.041, 0.050, true};
  EXPECT(std::abs(LatencySeconds(t[1]) - 0.035) < 1e-12);
  EXPECT(std::abs(LatenessSeconds(t[1]) - 0.030) < 1e-12);
  const RateSummary s = SummarizeRate(100, 0.03, t);
  EXPECT(s.attempted == 3 && s.failed == 0);
  EXPECT(std::abs(s.p50_s - 0.035) < 1e-12);
  EXPECT(std::abs(s.p99_s - 0.040) < 1e-12);
  EXPECT(std::abs(s.late_p99_s - 0.030) < 1e-12);
  EXPECT(std::abs(s.drain_s - 0.030) < 1e-12);
  EXPECT(std::abs(s.achieved_rate - 3 / 0.050) < 1e-9);
}

void TestWindows() {
  // 2000 requests make two windows: a clean one (1 ms) and one whose tail
  // is 100 ms.  The reported p99 is the median of the two window p99s,
  // the worst window keeps the 100 ms.
  std::vector<RequestTiming> t(2000);
  for (int i = 0; i < 2000; ++i) {
    const double latency = (i >= 1000 && i % 50 == 0) ? 0.100 : 0.001;
    t[i] = {i * 0.001, i * 0.001, i * 0.001 + latency, true};
  }
  const std::vector<double> p99 = WindowPercentiles(t, 0.99);
  EXPECT(p99.size() == 2);
  EXPECT(std::abs(p99[0] - 0.001) < 1e-9 && std::abs(p99[1] - 0.100) < 1e-9);
  const RateSummary s = SummarizeRate(1000, 2, t);
  EXPECT(std::abs(s.p99_s - 0.0505) < 1e-9);
  EXPECT(std::abs(s.worst_p99_s - 0.100) < 1e-9);
  EXPECT(std::abs(s.p50_s - 0.001) < 1e-9);
  EXPECT(WindowPercentiles({}, 0.5).empty());
}

void TestLimit() {
  std::vector<RequestTiming> fast(100);
  for (int i = 0; i < 100; ++i) {
    fast[i] = {i * 0.01, i * 0.01, i * 0.01 + 0.005, true};
  }
  std::vector<RequestTiming> failing = fast;
  failing[50].ok = false;
  std::vector<RequestTiming> backlog = fast;
  for (int i = 0; i < 100; ++i) backlog[i].done = 1.0 + i * 0.02;

  const RateSummary ok = SummarizeRate(100, 1, fast);
  const RateSummary bad = SummarizeRate(400, 1, failing);
  EXPECT(MeetsLimit(ok, 0.010));
  EXPECT(!MeetsLimit(ok, 0.001));
  EXPECT(!MeetsLimit(bad, 1.0));  // a failure is infinitely late
  EXPECT(bad.failed == 1);
  EXPECT(!MeetsLimit(SummarizeRate(100, 1, backlog), 0.5));
}

void TestWindowRates() {
  // 1000 completions/s for 2 s, then a drain tail after the loop stops.
  std::vector<RequestTiming> loop;
  for (int i = 0; i < 2000; ++i) {
    const double done = (i + 0.5) * 0.001;
    loop.push_back({done - 0.004, done - 0.004, done, true});
  }
  for (int i = 0; i < 50; ++i) loop.push_back({1.99, 1.99, 2.0 + i * 1e-4, true});
  // Warm-up and drain windows are left out.
  const std::vector<double> rates = WindowRates(loop, 0.5, 2.0, 0.1);
  EXPECT(rates.size() == 15);
  for (double rate : rates) EXPECT(std::abs(rate - 1000) < 1e-6);
  // A stall (no completion for a whole window) and a failed request cost
  // their windows, not the median.
  std::vector<RequestTiming> stalled;
  for (const RequestTiming& r : loop) {
    if (r.done < 1.0 || r.done >= 1.1) stalled.push_back(r);
  }
  stalled[1500].ok = false;
  const std::vector<double> hit = WindowRates(stalled, 0.5, 2.0, 0.1);
  EXPECT(hit[5] == 0);
  EXPECT(std::abs(Median(hit) - 1000) < 1e-6);
  // No whole window fits.
  EXPECT(WindowRates(loop, 0.5, 0.55, 0.1).empty());
  EXPECT(WindowRates({}, 0.5, 2.0, 0.1).size() == 15);
}

void TestGateReference() {
  // The scalar reference must reproduce GemmNT's per-element fold bit for
  // bit, including a factor count that spans two K panels.
  const Index f = mips::kGemmKPanel + 37;
  mips::Matrix users(3, f);
  mips::Matrix items(5, f);
  for (Index d = 0; d < f; ++d) {
    for (Index r = 0; r < 3; ++r) users.Row(r)[d] = std::sin(0.37 * d + r);
    for (Index r = 0; r < 5; ++r) items.Row(r)[d] = std::cos(0.11 * d * (r + 1));
  }
  mips::Matrix scores;
  mips::GemmNT(mips::ConstRowBlock(users), mips::ConstRowBlock(items), &scores);
  bool same = true;
  for (Index u = 0; u < 3; ++u) {
    for (Index i = 0; i < 5; ++i) {
      same &= CanonicalScore(users.Row(u), items.Row(i), f) == scores.Row(u)[i];
    }
  }
  EXPECT(same);

  // Ties break toward the lower id; short catalogs pad with sentinels.
  mips::Matrix tied(3, 2);
  const Real rows[3][2] = {{1, 0}, {1, 0}, {0, 1}};
  for (Index r = 0; r < 3; ++r) {
    tied.Row(r)[0] = rows[r][0];
    tied.Row(r)[1] = rows[r][1];
  }
  const Real user[2] = {2, 1};
  const std::vector<TopKEntry> want =
      BruteForceTopK(user, mips::ConstRowBlock(tied), nullptr, 4);
  EXPECT(want[0].item == 0 && want[1].item == 1 && want[2].item == 2);
  EXPECT(want[3].item == -1 && std::isinf(want[3].score));

  const auto score_of = [&](Index id) -> Real {
    return CanonicalScore(user, tied.Row(id), 2);
  };
  std::vector<TopKEntry> got = want;
  EXPECT(CompareRow(got.data(), want, false, score_of) == RowMatch::kExact);
  std::swap(got[0], got[1]);  // tie order violated
  EXPECT(CompareRow(got.data(), want, false, score_of) == RowMatch::kWrong);
  got = want;
  got[2].score = std::nextafter(got[2].score, 0.0);  // one ulp off
  EXPECT(CompareRow(got.data(), want, false, score_of) == RowMatch::kWrong);
  EXPECT(CompareRow(got.data(), want, true, score_of) == RowMatch::kUlp);
  got = want;
  got[2] = {1, want[2].score};  // duplicate id
  EXPECT(CompareRow(got.data(), want, true, score_of) == RowMatch::kWrong);
}

void TestSelfTime() {
  std::vector<Span> spans(3);
  spans[0] = {"engine", "Open", 0, 100, 1, 0, 0};
  spans[1] = {"solvers", "Prepare", 10, 40, 2, 1, 0};
  spans[2] = {"optimus", "Decide", 30, 70, 3, 1, 0};  // overlaps child 2
  const auto self = SelfSeconds(spans);
  EXPECT(std::abs(self.at("engine") - 40e-9) < 1e-15);  // 100 - |[10,70)|
  EXPECT(std::abs(self.at("solvers") - 30e-9) < 1e-15);
  EXPECT(std::abs(self.at("optimus") - 40e-9) < 1e-15);

  // A request served on another thread: its executor-side backend span
  // has no parent, and the request span adds nothing to any layer.
  std::vector<Span> served(2);
  served[0] = {"serve", "SubmitNewUser", 0, 100, 4, 0, 1, /*async=*/true};
  served[1] = {"engine", "TopKNewUsers", 20, 60, 5, 0, 0};
  const auto cross = SelfSeconds(served);
  EXPECT(cross.count("serve") == 0);
  EXPECT(std::abs(cross.at("engine") - 40e-9) < 1e-15);
}

}  // namespace

int main() {
  TestPercentiles();
  TestSchedule();
  TestLatencyFromIntendedArrival();
  TestWindows();
  TestLimit();
  TestWindowRates();
  TestGateReference();
  TestSelfTime();
  if (g_failures == 0) std::printf("mipsbench_stats_test: all passed\n");
  return g_failures == 0 ? 0 : 1;
}
