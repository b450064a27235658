#include "shard/sharded_engine.h"

#include <thread>

#include "common/timer.h"
#include "topk/merge.h"

namespace mips {

StatusOr<std::unique_ptr<ShardedMipsEngine>> ShardedMipsEngine::Open(
    const ConstRowBlock& users, const ConstRowBlock& items,
    const ShardedEngineOptions& options) {
  if (options.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1, got " +
                                   std::to_string(options.num_shards));
  }
  if (options.threads < 0) {
    return Status::InvalidArgument("threads must be >= 0, got " +
                                   std::to_string(options.threads));
  }

  std::unique_ptr<ShardedMipsEngine> engine(new ShardedMipsEngine());
  engine->users_ = users;
  engine->options_ = options;
  auto partition = ItemPartition::Create(
      items, options.num_shards, options.sharding, options.growth_block);
  MIPS_RETURN_IF_ERROR(partition.status());
  engine->partition_ = std::move(*partition);
  if (options.threads > 0) {
    engine->pool_ = std::make_unique<ThreadPool>(options.threads);
  }

  // Per-shard engines share the sharded engine's pool; each shard's Open
  // runs on its own thread (NOT on the pool — Open waits on the pool for
  // its candidate builds, and waiting from inside a pool task deadlocks),
  // so N shards' candidate indexes build concurrently.
  EngineOptions shard_options = options.engine;
  shard_options.threads = 0;
  shard_options.shared_pool = engine->pool_.get();
  const int num_shards = engine->partition_.num_shards();
  engine->engines_.resize(static_cast<std::size_t>(num_shards));
  std::vector<StatusOr<std::unique_ptr<MipsEngine>>> opened;
  std::vector<int> targets;
  for (int s = 0; s < num_shards; ++s) {
    if (engine->partition_.shard(s).num_items() > 0) targets.push_back(s);
  }
  opened.reserve(targets.size());
  for (std::size_t i = 0; i < targets.size(); ++i) {
    opened.push_back(Status::Internal("shard open did not run"));
  }
  {
    std::vector<std::thread> openers;
    openers.reserve(targets.size());
    for (std::size_t i = 0; i < targets.size(); ++i) {
      openers.emplace_back([&, i]() {
        opened[i] = MipsEngine::Open(
            users, engine->partition_.shard(targets[i]).items, shard_options);
      });
    }
    for (auto& t : openers) t.join();
  }
  for (std::size_t i = 0; i < targets.size(); ++i) {
    MIPS_RETURN_IF_ERROR(opened[i].status());
    engine->engines_[static_cast<std::size_t>(targets[i])] =
        std::move(*opened[i]);
    engine->active_shards_.push_back(targets[i]);
  }
  return engine;
}

template <typename ShardQuery>
Status ShardedMipsEngine::ScatterGather(Index k, const ShardQuery& query,
                                        TopKResult* out) {
  // Scatter: each shard answers exact top-k over its own items with
  // local ids...
  std::vector<TopKResult> partials(active_shards_.size());
  for (std::size_t i = 0; i < active_shards_.size(); ++i) {
    const int s = active_shards_[i];
    MIPS_RETURN_IF_ERROR(
        query(*engines_[static_cast<std::size_t>(s)], &partials[i]));
    // ...gather: remap to global ids through the partition...
    const ItemShard& shard = partition_.shard(s);
    TopKResult& partial = partials[i];
    for (Index q = 0; q < partial.num_queries(); ++q) {
      TopKEntry* row = partial.Row(q);
      for (Index e = 0; e < k; ++e) {
        if (row[e].item >= 0) row[e].item = shard.ToGlobal(row[e].item);
      }
    }
  }
  // ...and merge: k-way merge per query row under the BetterEntry order,
  // reproducing the unsharded row exactly.
  std::vector<const TopKResult*> results;
  results.reserve(partials.size());
  for (const TopKResult& partial : partials) results.push_back(&partial);
  MergeTopKResults(results, k, out);
  return Status::OK();
}

Status ShardedMipsEngine::TopK(Index k, std::span<const Index> user_ids,
                               TopKResult* out) {
  MIPS_RETURN_IF_ERROR(CheckKnownUsers(k, user_ids));
  WallTimer timer;
  MIPS_RETURN_IF_ERROR(ScatterGather(
      k,
      [&](MipsEngine& engine, TopKResult* partial) {
        return engine.TopK(k, user_ids, partial);
      },
      out));
  MutexLock lock(stats_mu_);
  serve_seconds_ += timer.Seconds();
  batches_served_ += 1;
  users_served_ += static_cast<int64_t>(user_ids.size());
  return Status::OK();
}

Status ShardedMipsEngine::TopKNewUsers(const Real* user_vectors,
                                       Index num_rows, Index k,
                                       TopKResult* out) {
  MIPS_RETURN_IF_ERROR(CheckNewUsers(user_vectors, num_rows, k));
  WallTimer timer;
  // Each shard answers the whole batch at once (its own strategy
  // decision is keyed on this batch shape).
  MIPS_RETURN_IF_ERROR(ScatterGather(
      k,
      [&](MipsEngine& engine, TopKResult* partial) {
        return engine.TopKNewUsers(user_vectors, num_rows, k, partial);
      },
      out));
  MutexLock lock(stats_mu_);
  serve_seconds_ += timer.Seconds();
  new_users_served_ += num_rows;
  return Status::OK();
}

Status ShardedMipsEngine::ForceStrategy(const std::string& name_or_spec) {
  // All shards were opened from the same candidate list, so the first
  // shard's answer decides for everyone: either the name matches a
  // candidate everywhere or nowhere.
  for (const int s : active_shards_) {
    MIPS_RETURN_IF_ERROR(
        engines_[static_cast<std::size_t>(s)]->ForceStrategy(name_or_spec));
  }
  return Status::OK();
}

Status ShardedMipsEngine::ForceStrategyOnShard(
    int shard, const std::string& name_or_spec) {
  if (shard < 0 || shard >= num_shards()) {
    return Status::OutOfRange("shard index out of range: " +
                              std::to_string(shard) + " (engine has " +
                              std::to_string(num_shards()) + " shards)");
  }
  MipsEngine* target = engines_[static_cast<std::size_t>(shard)].get();
  if (target == nullptr) {
    return Status::FailedPrecondition(
        "shard " + std::to_string(shard) + " is empty (no engine)");
  }
  return target->ForceStrategy(name_or_spec);
}

void ShardedMipsEngine::ClearForcedStrategy() {
  for (const int s : active_shards_) {
    engines_[static_cast<std::size_t>(s)]->ClearForcedStrategy();
  }
}

int64_t ShardedMipsEngine::InvalidateDecisions() {
  int64_t retired = 0;
  for (const int s : active_shards_) {
    retired += engines_[static_cast<std::size_t>(s)]->InvalidateDecisions();
  }
  return retired;
}

std::string ShardedMipsEngine::shard_strategy(int s) const {
  const MipsEngine* engine = shard_engine(s);
  return engine == nullptr ? std::string() : engine->strategy();
}

std::string ShardedMipsEngine::StrategySummary() const {
  std::string summary;
  for (int s = 0; s < num_shards(); ++s) {
    if (s > 0) summary += ",";
    summary += shard_strategy(s);
  }
  return summary;
}

ShardedMipsEngine::Stats ShardedMipsEngine::stats() const {
  Stats snapshot;
  {
    MutexLock lock(stats_mu_);
    snapshot.batches_served = batches_served_;
    snapshot.users_served = users_served_;
    snapshot.new_users_served = new_users_served_;
    snapshot.serve_seconds = serve_seconds_;
  }
  snapshot.shards.resize(static_cast<std::size_t>(num_shards()));
  for (int s = 0; s < num_shards(); ++s) {
    ShardSnapshot& shard = snapshot.shards[static_cast<std::size_t>(s)];
    shard.num_items = partition_.shard(s).num_items();
    const MipsEngine* engine = engines_[static_cast<std::size_t>(s)].get();
    if (engine == nullptr) continue;
    shard.strategy = engine->strategy();
    shard.opening_choice = engine->decision_report().chosen;
    shard.stats = engine->stats();
    snapshot.redecisions += shard.stats.redecisions;
    snapshot.decision_cache_hits += shard.stats.decision_cache_hits;
    snapshot.decision_cache_misses += shard.stats.decision_cache_misses;
    snapshot.decision_cache_evictions += shard.stats.decision_cache_evictions;
    snapshot.decision_cache_expirations +=
        shard.stats.decision_cache_expirations;
    snapshot.decision_cache_invalidations +=
        shard.stats.decision_cache_invalidations;
    snapshot.gemm_kernel = shard.stats.gemm_kernel;  // process-global
  }
  return snapshot;
}

}  // namespace mips
