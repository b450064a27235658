// The benchmark's workloads and the pipeline every one of them runs.
//
// Every workload opens one MipsEngine over a seeded synthetic model and
// runs the same phases, so the end-to-end metrics mean the same thing
// everywhere and differ only in what the workload stresses:
//
//   setup     MipsEngine::Open nine times (candidate construction and
//             the opening OPTIMUS decision); the median is setup_s.
//   batch     One discarded warm-up TopKAll pass, then back-to-back passes
//             over the known users; the median pass gives
//             batch_users_per_s, and setup_s + one pass is the paper's
//             end-to-end batch_total_s.
//   serving   Single new-user requests through a BatchingEngine in
//             front of the engine: a closed loop that keeps a fixed
//             number of requests outstanding, whose median completion
//             rate is max_ok_qps, and open-loop Poisson arrivals at the
//             nominal rate (query_p50_ms / query_p99_ms).
//
//   An untraced run interleaves the batch passes and both serving phases
//   in rounds, so a slow spell of the host touches a minority of each
//   median's samples.
//   gate      Sampled answers against brute force (gate.h).
//
// The traced run (--trace 1) makes its batch passes in one stretch and
// replaces the serving phases with the nominal rung run twice, untraced
// then traced (their difference is the tracing overhead), records spans (trace.h), runs the layer suite
// (layers.h), and ends with the live-catalog rung: a LiveCatalog over
// the workload's first items serving queries beside a paced
// insert/update/remove stream, gated afterwards by stopping the writer,
// rebuilding, and comparing with brute force and a cold MipsEngine::Open
// over the writer's tracked item set.

#ifndef MIPSBENCH_WORKLOADS_H_
#define MIPSBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "provenance.h"

namespace mipsbench {

using mips::Index;

struct WorkloadSpec {
  std::string name;
  /// Why the workload is in the benchmark (BENCHMARK.json carries the
  /// same sentence).
  std::string why;
  std::string preset;
  double scale = 1;
  /// Worker threads of the MipsEngine / LiveCatalog epoch pool.
  int engine_threads = 2;
  /// Item shards of a LiveCatalog backend (0 = plain MipsEngine).
  int catalog_shards = 0;
  /// Open-loop nominal rate in requests/s (query_p50_ms).
  double nominal_rate = 1000;
  /// Paced mutations per second beside every rung (0 = none).
  double mutation_rate = 0;
};

/// Every workload answers top-k at this k over these OPTIMUS candidates.
inline constexpr Index kTopK = 10;
inline const std::vector<std::string> kCandidates = {"bmm", "maximus"};

/// The workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& AllWorkloads();

/// The same workload shrunk for smoke tests: scale down, short phases,
/// low rates.
WorkloadSpec TinyVersion(const WorkloadSpec& spec);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the result record and the span file.
  std::string out_dir = ".bench_out";
};

struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// The metrics of the final JSON line: every end-to-end metric for an
  /// untraced run, every per-layer metric for a traced one.
  std::vector<Metric> metrics;
  /// Everything else worth reading (per-rung latencies, failed_frac,
  /// query_p99_ms, gate counts).
  std::vector<Metric> report;
  Provenance provenance;
};

/// Runs `spec` end to end.  Aborts the process (non-zero exit) when the
/// library cannot open or serve at all.
RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& options);

}  // namespace mipsbench

#endif  // MIPSBENCH_WORKLOADS_H_
