// The layer suite of the traced run: each layer timed from outside
// through its public API, on the workload's own model.
//
// mipsbench/README.md names the end-to-end metric each one should move.
//
//   linalg.*   GemmNT at BMM's score-block shape and at the serving rows
//              per batch, against the installed kernel's probe ceiling.
//   topk.*     TopKFromScoreBlock over that score block.
//   solver.*   bmm and maximus built from their specs, Prepare and a
//              forced TopKForUsers over a fixed user sample.
//   cluster / maximus   MAXIMUS's public stage_timer().
//   optimus.*  Optimus::DecidePrepared over the prepared candidates.
//   pool.*     the sample split over a 2-thread ThreadPool vs serial.
//   shard.*    ShardedMipsEngine (4 growth shards) vs MipsEngine new-user
//              latency over the first 800 items.
//   engine.*   the workload's MipsEngine stats() after one query at a
//              new k (a forced re-decision).
//
// serve.* come from the workload's nominal serving rung; catalog.* from
// the traced run's live-catalog rung over its first 800 items
// (workloads.cc).

#ifndef MIPSBENCH_LAYERS_H_
#define MIPSBENCH_LAYERS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/engine.h"
#include "data/synthetic.h"
#include "workloads.h"

namespace mipsbench {

/// Items of the live-catalog rung and the shard probe.
inline constexpr Index kProbeItems = 800;

/// Layers whose self time the traced run reports (self_s.<layer>).
inline constexpr const char* kTracedLayers[] = {
    "engine", "serve", "catalog", "shard", "optimus",
    "solvers", "linalg", "topk", "pool"};

struct LayerContext {
  const mips::MFModel* model = nullptr;
  mips::EngineOptions engine_options;
  /// The workload's engine.
  mips::MipsEngine* engine = nullptr;
  /// The workload engine's opening strategy.
  std::string chosen;
  /// Realized rows per batch of the workload's nominal serving rung.
  double rows_per_batch = 1;
  uint64_t seed = 1;
};

/// Runs every probe and appends its metrics to *out.
void RunLayerSuite(const LayerContext& context, std::vector<Metric>* out);

}  // namespace mipsbench

#endif  // MIPSBENCH_LAYERS_H_
