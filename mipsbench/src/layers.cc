#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <random>

#include "common/thread_pool.h"
#include "core/optimus.h"
#include "linalg/gemm.h"
#include "linalg/simd_dispatch.h"
#include "shard/partition.h"
#include "shard/sharded_engine.h"
#include "solvers/bmm.h"
#include "solvers/registry.h"
#include "stats.h"
#include "topk/topk_block.h"
#include "trace.h"

namespace mipsbench {

using mips::ConstRowBlock;
using mips::Matrix;
using mips::Real;
using mips::Status;
using mips::TopKEntry;
using mips::TopKResult;

namespace {

/// Users in the solver / pool probes' fixed sample.
constexpr Index kSampleUsers = 4096;
/// New-user queries per engine in the shard probe.
constexpr int kShardQueries = 200;
/// Minimum wall time each repeated micro-measurement accumulates.
constexpr double kMinProbeSeconds = 0.25;

void CheckOk(const char* what, const Status& status) {
  if (status.ok()) return;
  std::fprintf(stderr, "mipsbench: %s failed: %s\n", what,
               status.ToString().c_str());
  std::exit(2);
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median wall time of `fn`, repeated until kMinProbeSeconds have passed
/// and at least `min_reps` runs were taken.
template <typename Fn>
double MedianSeconds(int min_reps, Fn&& fn) {
  std::vector<double> times;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(times.size()) < min_reps ||
         SecondsSince(start) < kMinProbeSeconds) {
    const Clock::time_point t0 = Clock::now();
    fn();
    times.push_back(SecondsSince(t0));
  }
  return Median(times);
}

/// The installed kernel's packed-panel ceiling: the best of a few runs of
/// the library's own kernel probe (one run lasts well under a
/// millisecond, so a single one is at the mercy of the scheduler).
double ProbeCeilingGflops() {
  constexpr int kProbeRuns = 5;
  const mips::GemmKernel active = mips::ActiveGemmKernel();
  double best = 0;
  for (int run = 0; run < kProbeRuns; ++run) {
    for (const auto& variant : mips::ProbeGemmKernels().variants) {
      if (variant.kernel == active) best = std::max(best, variant.gflops);
    }
  }
  return best;
}

/// linalg.* and topk.*.
void GemmAndSelect(const LayerContext& c, std::vector<Metric>* out) {
  const Matrix& users = c.model->users;
  const Matrix& items = c.model->items;
  const Index n = items.rows();
  const Index f = items.cols();
  // BMM's own block sizing (solvers/bmm.cc): a ~16 MiB score block.
  const std::size_t budget = mips::BmmOptions{}.score_block_bytes;
  const Index m = std::min<Index>(
      users.rows(),
      static_cast<Index>(std::clamp<std::size_t>(
          budget / (static_cast<std::size_t>(n) * sizeof(Real)), 128, 8192)));
  Matrix scores(m, n);
  const double gemm_s = MedianSeconds(3, [&] {
    ScopedSpan span("linalg", "GemmNT");
    mips::GemmNT(users.data(), m, items.data(), n, f, 1, 0, scores.data(), n);
  });
  TopKResult selected(m, kTopK);
  const double select_s = MedianSeconds(3, [&] {
    ScopedSpan span("topk", "TopKFromScoreBlock");
    mips::TopKFromScoreBlock(scores.data(), m, n, n, kTopK, 0, nullptr,
                             &selected, 0);
  });
  const double flops = 2.0 * m * static_cast<double>(n) * f;
  const double gemm_gflops = flops / gemm_s * 1e-9;
  const double ceiling = ProbeCeilingGflops();

  // The serving path's GEMM: realized rows per batch against all items.
  const Index rows = std::clamp<Index>(
      static_cast<Index>(std::lround(c.rows_per_batch)), 1, m);
  constexpr int kCallsPerSample = 16;
  const double batch_s = MedianSeconds(3, [&] {
    ScopedSpan span("linalg", "GemmNT");
    for (int i = 0; i < kCallsPerSample; ++i) {
      mips::GemmNT(users.Row(i % (m - rows + 1)), rows, items.data(), n, f,
                   1, 0, scores.data(), n);
    }
  }) / kCallsPerSample;

  out->push_back({"linalg.gemm_gflops", gemm_gflops, "GFLOP/s"});
  out->push_back({"linalg.gemm_probe_gflops", ceiling, "GFLOP/s"});
  out->push_back({"linalg.gemm_efficiency",
                  ceiling > 0 ? gemm_gflops / ceiling : 0, "ratio"});
  out->push_back({"linalg.gemm_batch_gflops",
                  2.0 * rows * static_cast<double>(n) * f / batch_s * 1e-9,
                  "GFLOP/s"});
  out->push_back({"topk.select_cells_per_s",
                  static_cast<double>(m) * n / select_s, "cells/s"});
  out->push_back({"topk.select_share", select_s / (gemm_s + select_s),
                  "ratio"});
}

struct SolverProbe {
  std::string name;
  std::unique_ptr<mips::MipsSolver> solver;
  double prepare_s = 0;
  double per_user_s = 0;
  int sample_passes = 0;
};

/// solver.*, cluster.*, maximus.*, optimus.* and pool.*.
void SolversAndOptimus(const LayerContext& c, std::vector<Metric>* out) {
  const ConstRowBlock users(c.model->users);
  const ConstRowBlock items(c.model->items);
  std::vector<Index> sample(static_cast<std::size_t>(
      std::min<Index>(kSampleUsers, users.rows())));
  {
    std::vector<Index> all(static_cast<std::size_t>(users.rows()));
    std::iota(all.begin(), all.end(), 0);
    std::mt19937_64 rng(c.seed);
    std::shuffle(all.begin(), all.end(), rng);
    std::copy(all.begin(), all.begin() + static_cast<long>(sample.size()),
              sample.begin());
    std::sort(sample.begin(), sample.end());
  }
  const Index s = static_cast<Index>(sample.size());

  std::vector<SolverProbe> probes;
  for (const std::string& spec : kCandidates) {
    SolverProbe p;
    auto solver = mips::CreateSolverFromSpec(spec);
    CheckOk("CreateSolverFromSpec", solver.status());
    p.solver = std::move(solver).value();
    p.name = p.solver->name();
    const Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span("solvers", "MipsSolver::Prepare");
      CheckOk("Prepare", p.solver->Prepare(users, items));
    }
    p.prepare_s = SecondsSince(t0);
    TopKResult result;
    p.per_user_s = MedianSeconds(3, [&] {
      ScopedSpan span("solvers", "MipsSolver::TopKForUsers");
      CheckOk("TopKForUsers", p.solver->TopKForUsers(kTopK, sample, &result));
      ++p.sample_passes;
    }) / s;
    probes.push_back(std::move(p));
  }

  for (const SolverProbe& p : probes) {
    out->push_back({"solver." + p.name + ".users_per_s", 1.0 / p.per_user_s,
                    "users/s"});
    out->push_back({"solver." + p.name + ".prepare_s", p.prepare_s, "s"});
    if (p.name == "maximus") {
      const mips::StageTimer& stages = p.solver->stage_timer();
      out->push_back({"cluster.kmeans_s", stages.Get("clustering"), "s"});
      out->push_back({"maximus.construction_s", stages.Get("construction"),
                      "s"});
      // Traversal accumulates over every sample pass; report one pass.
      out->push_back({"maximus.traversal_s",
                      stages.Get("traversal") / p.sample_passes, "s"});
    }
  }

  std::vector<mips::MipsSolver*> strategies;
  for (SolverProbe& p : probes) strategies.push_back(p.solver.get());
  std::size_t winner = 0;
  mips::OptimusReport report;
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan span("optimus", "Optimus::DecidePrepared");
    mips::Optimus optimus(c.engine_options.optimus);
    CheckOk("DecidePrepared", optimus.DecidePrepared(users, items, kTopK,
                                                     strategies, &winner,
                                                     &report));
  }
  const double decide_s = SecondsSince(t0);
  const std::string& chosen = c.chosen;
  double best = probes.front().per_user_s;
  double chosen_per_user = probes.front().per_user_s;
  for (const SolverProbe& p : probes) {
    best = std::min(best, p.per_user_s);
    if (p.name == chosen) chosen_per_user = p.per_user_s;
  }
  const double full_pass_s = chosen_per_user * users.rows();
  out->push_back({"optimus.decide_s", decide_s, "s"});
  out->push_back({"optimus.regret", chosen_per_user / best, "ratio"});
  out->push_back({"optimus.overhead_frac", decide_s / (decide_s + full_pass_s),
                  "ratio"});

  // The engine's parallel path: the user sample split across a 2-thread
  // pool (static partition, one result block per chunk) against serial.
  mips::MipsSolver* served = probes.front().solver.get();
  for (SolverProbe& p : probes) {
    if (p.name == chosen) served = p.solver.get();
  }
  mips::ThreadPool pool(2);
  std::vector<TopKResult> chunks(2);
  const double parallel_s = MedianSeconds(3, [&] {
    ScopedSpan span("pool", "ParallelFor");
    mips::ParallelFor(&pool, s, [&](int64_t begin, int64_t end, int chunk) {
      const std::span<const Index> part(sample.data() + begin,
                                        static_cast<std::size_t>(end - begin));
      CheckOk("TopKForUsers",
              served->TopKForUsers(kTopK, part,
                                   &chunks[static_cast<std::size_t>(chunk)]));
    });
  });
  TopKResult serial;
  const double serial_s = MedianSeconds(3, [&] {
    ScopedSpan span("solvers", "MipsSolver::TopKForUsers");
    CheckOk("TopKForUsers", served->TopKForUsers(kTopK, sample, &serial));
  });
  out->push_back({"pool.speedup", serial_s / parallel_s, "ratio"});
}

/// shard.* and engine.*.
void ShardAndEngine(const LayerContext& c, std::vector<Metric>* out) {
  const ConstRowBlock users(c.model->users);
  const Index n = std::min<Index>(kProbeItems, c.model->items.rows());
  const ConstRowBlock items(c.model->items, 0, n);

  mips::EngineOptions options = c.engine_options;
  options.threads = 2;
  options.shared_pool = nullptr;
  std::unique_ptr<mips::MipsEngine> engine;
  {
    ScopedSpan span("engine", "MipsEngine::Open");
    auto opened = mips::MipsEngine::Open(users, items, options);
    CheckOk("MipsEngine::Open", opened.status());
    engine = std::move(opened).value();
  }
  mips::ShardedEngineOptions sharded_options;
  sharded_options.num_shards = 4;
  sharded_options.sharding = mips::ShardingStrategy::kGrowth;
  sharded_options.engine = options;
  sharded_options.threads = 2;
  std::unique_ptr<mips::ShardedMipsEngine> sharded;
  {
    ScopedSpan span("shard", "ShardedMipsEngine::Open");
    auto opened = mips::ShardedMipsEngine::Open(users, items, sharded_options);
    CheckOk("ShardedMipsEngine::Open", opened.status());
    sharded = std::move(opened).value();
  }

  std::mt19937_64 rng(c.seed + 3);
  std::vector<TopKEntry> row(static_cast<std::size_t>(kTopK));
  std::vector<double> flat;
  std::vector<double> fanned;
  for (int q = 0; q < kShardQueries; ++q) {
    const Real* user = users.Row(
        static_cast<Index>(rng() % static_cast<uint64_t>(users.rows())));
    Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span("engine", "MipsEngine::TopKNewUser");
      CheckOk("TopKNewUser", engine->TopKNewUser(user, kTopK, row.data()));
    }
    flat.push_back(SecondsSince(t0));
    t0 = Clock::now();
    {
      ScopedSpan span("shard", "ShardedMipsEngine::TopKNewUser");
      CheckOk("TopKNewUser", sharded->TopKNewUser(user, kTopK, row.data()));
    }
    fanned.push_back(SecondsSince(t0));
  }
  out->push_back({"shard.fanout_ratio", Median(fanned) / Median(flat),
                  "ratio"});

  // Decision-cache accounting of the engine that served the workload,
  // after one query at a k it was never asked (a forced re-decision).
  mips::MipsEngine* served = c.engine;
  std::vector<Index> ids(static_cast<std::size_t>(
      std::min<Index>(256, users.rows())));
  std::iota(ids.begin(), ids.end(), 0);
  TopKResult result;
  {
    ScopedSpan span("engine", "MipsEngine::TopK");
    CheckOk("TopK", served->TopK(kTopK + 1, ids, &result));
  }
  const mips::MipsEngine::Stats stats = served->stats();
  const double lookups =
      static_cast<double>(stats.decision_cache_hits + stats.decision_cache_misses);
  out->push_back({"engine.cache_hit_ratio",
                  lookups > 0 ? stats.decision_cache_hits / lookups : 0,
                  "ratio"});
  out->push_back({"engine.redecisions", static_cast<double>(stats.redecisions),
                  "count"});
  out->push_back({"engine.redecision_s", stats.redecision_seconds, "s"});
}

}  // namespace

void RunLayerSuite(const LayerContext& context, std::vector<Metric>* out) {
  GemmAndSelect(context, out);
  SolversAndOptimus(context, out);
  ShardAndEngine(context, out);
}

}  // namespace mipsbench
