// Order statistics and open-loop arithmetic shared by every workload.
//
// Percentiles use the nearest-rank definition: the p-quantile of n
// samples is the value at 1-based rank ceil(p * n) of the sorted sample,
// so every reported percentile is an observed latency and p100 is the
// maximum.  Medians of repeated measurements (setup, TopKAll passes)
// average the two middle values, like Python's statistics.median.

#ifndef MIPSBENCH_STATS_H_
#define MIPSBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mipsbench {

/// Nearest-rank p-quantile (p in [0, 1]) of `values`; 0 for an empty
/// sample.  Takes a copy so callers keep their sample order.
double Percentile(std::vector<double> values, double p);

/// Median of `values` (mean of the two middle values for even sizes);
/// 0 for an empty sample.
double Median(std::vector<double> values);

/// Poisson arrival offsets, in seconds from the start of a phase, for
/// `rate` arrivals per second over `seconds`.  Deterministic in `seed`:
/// the whole schedule is drawn before the phase starts, so the load a run
/// offers never depends on how fast the system answers.
std::vector<double> PoissonSchedule(double rate, double seconds,
                                    uint64_t seed);

/// What one open-loop request experienced, in seconds from phase start.
struct RequestTiming {
  /// When the schedule said the request was due.
  double intended = 0;
  /// When the generator actually handed it to the system.
  double sent = 0;
  /// When its answer (or error) came back.
  double done = 0;
  bool ok = false;
};

/// Latency charged from the intended arrival (no coordinated omission: a
/// stall delays every later request's clock, and that delay is counted).
inline double LatencySeconds(const RequestTiming& r) {
  return r.done - r.intended;
}
/// How late the generator itself ran for this request.
inline double LatenessSeconds(const RequestTiming& r) {
  return r.sent - r.intended;
}

/// Summary of one open-loop phase at one offered rate.
struct RateSummary {
  double offered_rate = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Latency percentiles from the intended arrival: the median over
  /// WindowPercentiles, so one scheduling hiccup of the host cannot decide
  /// a run's tail.  A failed request counts as infinitely late.
  double p50_s = 0;
  double p99_s = 0;
  /// The worst window's p99.
  double worst_p99_s = 0;
  /// p99 of generator lateness (sent - intended).
  double late_p99_s = 0;
  /// Time from the last intended arrival to the last completion: a
  /// backlog that grew during the phase shows up here as a long drain.
  double drain_s = 0;
  /// Completions per second over the phase window plus its drain.
  double achieved_rate = 0;
};

/// Requests per latency window: enough that a window's p99 has ten
/// samples beyond it.
inline constexpr std::size_t kWindowRequests = 1000;

/// Percentile `p` of latency (from the intended arrival) in each of the
/// consecutive windows of at least kWindowRequests requests (send order)
/// that `timings` splits into; one window when there are fewer.  Failed
/// requests count as infinitely late.
std::vector<double> WindowPercentiles(const std::vector<RequestTiming>& timings,
                                      double p);

/// Summarizes `timings` (one entry per scheduled request).
RateSummary SummarizeRate(double offered_rate, double seconds,
                          const std::vector<RequestTiming>& timings);

/// The serving limit: every request answered, p99 within `p99_limit_s`,
/// and a drain no longer than the limit (no growing backlog).
bool MeetsLimit(const RateSummary& summary, double p99_limit_s);

/// A closed loop's completion rates: its answered requests per second in
/// each whole `window_s` window of completion time between `warmup_s`
/// (the pipeline is filling before it) and `seconds` (after it, the loop
/// stops sending and drains).  The median of them is its capacity, so a
/// stall of the host costs a window, not the figure.  Empty when no
/// window fits.
std::vector<double> WindowRates(const std::vector<RequestTiming>& timings,
                                double warmup_s, double seconds,
                                double window_s);

}  // namespace mipsbench

#endif  // MIPSBENCH_STATS_H_
