// ShardedMipsEngine: scatter/gather exact MIPS over an item-sharded
// catalog, with an independent OPTIMUS decision per shard.
//
// The paper's core result is that the index-vs-BMM winner depends on the
// data — norm skew, dimensionality, k (Figure 2/5) — so a sharded catalog
// should not make one global decision.  Each shard here is a full
// MipsEngine over (all users, that shard's items): it builds its own
// candidate indexes, runs its own OPTIMUS decision, and may pick a
// different solver than its neighbors (a norm-skewed shard prunes with
// LEMP while a flat shard falls back to BMM).  stats() surfaces every
// shard's winner, serve counters, and re-decisions so that heterogeneity
// is observable, not hidden.
//
// Serving is scatter/gather: a TopK/TopKNewUsers call fans across the
// shards, each answers exact top-k over its items (local ids), ids are
// remapped to global through the partition, and the per-shard rows are
// k-way merged (topk/merge.h) into the exact global top-k.  Both query
// paths share that one remap+merge step.  The engine is a TopKBackend
// (core/topk_backend.h), so it serves wherever a MipsEngine does: behind
// a BatchingEngine, as a LiveCatalog epoch, in the CLI.  Every item
// lives in exactly one shard and every layer — heap eviction, strict
// pruning bounds, row extraction, merge — uses the library-wide
// BetterEntry tie order, so the merged result is bit-for-bit the
// unsharded engine's answer, including which of several exactly tied
// items is reported.  This holds for every solver family, FEXIPRO
// included: solvers whose pruning runs in an item-set-dependent
// transform space (FEXIPRO's SVD rotation) rescore survivors against
// the original vectors before they enter the heap, so a shard's
// rotation can never shift a reported score by an ulp and flip an exact
// cross-shard tie.
//
// Threading: the sharded engine owns one pool shared by every shard
// engine (EngineOptions::shared_pool) — shard candidate indexes build
// concurrently during Open (each shard's Open runs on its own thread,
// its candidate Prepares on the shared pool), and at query time each
// shard's intra-batch parallelism draws from the same pool.  The scatter
// itself visits shards sequentially on the calling thread: per-shard
// work already multiplexes onto the pool, and a serving deployment gets
// its cross-shard concurrency from many simultaneous callers — the same
// contract as MipsEngine (PR 2), with no risk of waiting on the pool
// from inside a pool task.  The known cost of that contract carries
// over too: ThreadPool::Wait is global-idle, so under a pool (threads >
// 0) one caller's intra-batch wait also drains other callers' queued
// chunks; the per-caller task group on the ROADMAP would decouple them
// and additionally allow a parallel scatter.
//
// Thread safety mirrors MipsEngine: after Open, every TopKBackend query,
// stats() and ForceStrategy* may be called from any number of threads
// concurrently.

#ifndef MIPS_SHARD_SHARDED_ENGINE_H_
#define MIPS_SHARD_SHARDED_ENGINE_H_

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/engine.h"
#include "shard/partition.h"

namespace mips {

/// Configuration for ShardedMipsEngine::Open.
struct ShardedEngineOptions {
  /// Number of item shards (>= 1; 1 degenerates to an unsharded engine
  /// behind the sharded interface).
  int num_shards = 2;
  /// Item placement policy (see shard/partition.h).
  ShardingStrategy sharding = ShardingStrategy::kContiguous;
  /// Pinned block size for kGrowth placement (0 = derive from the item
  /// count at Open); ignored by the other strategies.
  Index growth_block = 0;
  /// Per-shard engine configuration (decision k, candidate specs,
  /// optimus knobs, redecide/cache policy).  `threads` and `shared_pool`
  /// are overridden: every shard runs on the sharded engine's own pool.
  EngineOptions engine;
  /// Worker threads in the pool shared by all shard engines
  /// (0 = single-threaded).
  int threads = 0;
};

/// Exact MIPS over an item-sharded catalog; see the file comment.
class ShardedMipsEngine : public TopKBackend {
 public:
  /// Partitions the items, opens one MipsEngine per non-empty shard
  /// (concurrently), and runs each shard's OPTIMUS decision.  The model
  /// views must outlive the engine.
  static StatusOr<std::unique_ptr<ShardedMipsEngine>> Open(
      const ConstRowBlock& users, const ConstRowBlock& items,
      const ShardedEngineOptions& options = {});

  /// Exact global top-K for a mini-batch of known users: scatter to every
  /// shard, gather + merge.  Identical to the unsharded MipsEngine result
  /// (ids remapped to global; BetterEntry order).  Safe for concurrent
  /// callers.
  Status TopK(Index k, std::span<const Index> user_ids,
              TopKResult* out) override EXCLUDES(stats_mu_);

  /// Exact global top-K for a mini-batch of new-user vectors
  /// (`num_rows` x num_factors(), row-major): scatter the whole batch to
  /// every shard's batched new-user path, remap, k-way merge.  Each row of
  /// *out is bit-for-bit what TopKNewUser returns for that vector alone —
  /// the per-shard GEMM computes each (row, item) score independently of
  /// the other batch rows — which is what lets a serving layer coalesce
  /// singleton traffic without changing any answer.
  Status TopKNewUsers(const Real* user_vectors, Index num_rows, Index k,
                      TopKResult* out) override EXCLUDES(stats_mu_);

  /// Forces every shard onto the candidate named by solver name or exact
  /// opening spec.  All shards share the same candidate list, so this
  /// either applies everywhere or fails everywhere (NotFound).
  Status ForceStrategy(const std::string& name_or_spec);
  /// Forces a single shard, leaving the others on their own decisions
  /// (operator escape hatch: pin one degenerate shard without giving up
  /// per-shard optimization elsewhere).
  Status ForceStrategyOnShard(int shard, const std::string& name_or_spec);
  /// Returns every shard to decision-driven selection.
  void ClearForcedStrategy();

  /// MipsEngine::InvalidateDecisions over every non-empty shard (the
  /// catalog layer's swap-time retirement hook); returns the total
  /// number of cached decisions retired.
  int64_t InvalidateDecisions() override;
  /// Per-shard strategies in shard order, joined with ','.
  std::string StrategySummary() const override;

  int num_shards() const { return partition_.num_shards(); }
  const ItemPartition& partition() const { return partition_; }
  /// The engine serving shard s, or null for an empty shard.
  /// Precondition: 0 <= s < num_shards() (asserted, like Matrix::Row).
  const MipsEngine* shard_engine(int s) const {
    assert(s >= 0 && s < num_shards());
    return engines_[static_cast<std::size_t>(s)].get();
  }
  /// Strategy currently serving shard s ("" for an empty shard).
  /// Precondition: 0 <= s < num_shards() (asserted).
  std::string shard_strategy(int s) const;

  Index num_users() const override { return users_.rows(); }
  Index num_items() const override { return partition_.num_items(); }
  Index num_factors() const override { return users_.cols(); }

  /// Aggregate + per-shard serving statistics.
  struct ShardSnapshot {
    Index num_items = 0;
    /// Strategy serving the shard's decision k right now ("" if empty).
    std::string strategy;
    /// The shard's opening OPTIMUS winner ("" if empty).
    std::string opening_choice;
    MipsEngine::Stats stats;
  };
  struct Stats {
    /// Sharded-engine-level counters (one batch = one scatter/gather).
    int64_t batches_served = 0;
    int64_t users_served = 0;
    int64_t new_users_served = 0;
    /// End-to-end scatter + gather + merge time.
    double serve_seconds = 0;
    /// Sums over shards (each shard's own counters are in `shards`).
    int64_t redecisions = 0;
    int64_t decision_cache_hits = 0;
    int64_t decision_cache_misses = 0;
    int64_t decision_cache_evictions = 0;
    int64_t decision_cache_expirations = 0;
    int64_t decision_cache_invalidations = 0;
    /// The process-global GEMM micro-kernel every shard's GEMMs dispatch
    /// to ("" when every shard is empty).
    std::string gemm_kernel;
    std::vector<ShardSnapshot> shards;
  };
  Stats stats() const EXCLUDES(stats_mu_);

 private:
  ShardedMipsEngine() = default;

  /// Runs `query(engine, &partial)` on every non-empty shard, remaps each
  /// partial result's ids to global, and k-way merges them into *out.
  template <typename ShardQuery>
  Status ScatterGather(Index k, const ShardQuery& query, TopKResult* out);

  ConstRowBlock users_;
  ShardedEngineOptions options_;
  ItemPartition partition_;
  std::unique_ptr<ThreadPool> pool_;
  /// One engine per shard; null for empty shards.
  std::vector<std::unique_ptr<MipsEngine>> engines_;
  /// Indices of non-empty shards (scatter order).
  std::vector<int> active_shards_;

  /// Engine-level serve counters.  One mutex, taken once per batch, so
  /// each scatter/gather's updates publish together and stats() reads a
  /// cross-field-consistent snapshot.
  mutable Mutex stats_mu_;
  int64_t batches_served_ GUARDED_BY(stats_mu_) = 0;
  int64_t users_served_ GUARDED_BY(stats_mu_) = 0;
  int64_t new_users_served_ GUARDED_BY(stats_mu_) = 0;
  double serve_seconds_ GUARDED_BY(stats_mu_) = 0;
};

}  // namespace mips

#endif  // MIPS_SHARD_SHARDED_ENGINE_H_
