#include "stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>

namespace mipsbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double rank = std::ceil(std::clamp(p, 0.0, 1.0) * n);
  const std::size_t index =
      rank < 1 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return 0.5 * (values[mid - 1] + values[mid]);
}

std::vector<double> PoissonSchedule(double rate, double seconds,
                                    uint64_t seed) {
  std::vector<double> schedule;
  if (!(rate > 0) || !(seconds > 0)) return schedule;
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  for (double t = gap(rng); t < seconds; t += gap(rng)) {
    schedule.push_back(t);
  }
  return schedule;
}

std::vector<double> WindowPercentiles(const std::vector<RequestTiming>& timings,
                                      double p) {
  std::vector<double> out;
  const std::size_t n = timings.size();
  const std::size_t windows = std::max<std::size_t>(1, n / kWindowRequests);
  for (std::size_t w = 0; w < windows && n > 0; ++w) {
    std::vector<double> latency;
    for (std::size_t i = n * w / windows; i < n * (w + 1) / windows; ++i) {
      latency.push_back(timings[i].ok ? LatencySeconds(timings[i])
                                      : std::numeric_limits<double>::infinity());
    }
    out.push_back(Percentile(std::move(latency), p));
  }
  return out;
}

RateSummary SummarizeRate(double offered_rate, double seconds,
                          const std::vector<RequestTiming>& timings) {
  RateSummary summary;
  summary.offered_rate = offered_rate;
  summary.attempted = static_cast<int64_t>(timings.size());
  std::vector<double> lateness;
  lateness.reserve(timings.size());
  double last_intended = 0;
  double last_done = 0;
  int64_t completed = 0;
  for (const RequestTiming& r : timings) {
    lateness.push_back(LatenessSeconds(r));
    last_intended = std::max(last_intended, r.intended);
    last_done = std::max(last_done, r.done);
    if (r.ok) {
      ++completed;
    } else {
      ++summary.failed;
    }
  }
  const std::vector<double> p99s = WindowPercentiles(timings, 0.99);
  summary.p50_s = Median(WindowPercentiles(timings, 0.50));
  summary.p99_s = Median(p99s);
  summary.worst_p99_s = p99s.empty() ? 0 : *std::max_element(p99s.begin(), p99s.end());
  summary.late_p99_s = Percentile(lateness, 0.99);
  summary.drain_s = timings.empty() ? 0 : last_done - last_intended;
  const double window = std::max(seconds, last_done);
  summary.achieved_rate =
      window > 0 ? static_cast<double>(completed) / window : 0;
  return summary;
}

bool MeetsLimit(const RateSummary& summary, double p99_limit_s) {
  return summary.attempted > 0 && summary.failed == 0 &&
         summary.p99_s <= p99_limit_s && summary.drain_s <= p99_limit_s;
}

std::vector<double> WindowRates(const std::vector<RequestTiming>& timings,
                                double warmup_s, double seconds,
                                double window_s) {
  if (!(window_s > 0) || !(seconds > warmup_s)) return {};
  const std::size_t windows =
      static_cast<std::size_t>(std::floor((seconds - warmup_s) / window_s));
  std::vector<double> rates(windows, 0.0);
  for (const RequestTiming& r : timings) {
    if (!r.ok || r.done < warmup_s) continue;
    const std::size_t w =
        static_cast<std::size_t>(std::floor((r.done - warmup_s) / window_s));
    if (w < windows) rates[w] += 1;
  }
  for (double& rate : rates) rate /= window_s;
  return rates;
}

}  // namespace mipsbench
