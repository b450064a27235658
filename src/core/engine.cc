#include "core/engine.h"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/mutex.h"
#include "common/timer.h"
#include "core/dynamic_maximus.h"
#include "core/maximus.h"
#include "linalg/simd_dispatch.h"
#include "solvers/bmm.h"
#include "solvers/registry.h"

namespace mips {

StatusOr<std::unique_ptr<MipsEngine>> MipsEngine::Open(
    const ConstRowBlock& users, const ConstRowBlock& items,
    const EngineOptions& options) {
  if (options.k <= 0) {
    return Status::InvalidArgument("k must be positive, got " +
                                   std::to_string(options.k));
  }
  if (options.solvers.empty()) {
    return Status::InvalidArgument(
        "engine needs at least one candidate solver spec");
  }
  if (users.rows() <= 0 || items.rows() <= 0) {
    return Status::InvalidArgument("user and item sets must be non-empty");
  }
  if (users.cols() != items.cols()) {
    return Status::InvalidArgument("user/item factor dimensions differ");
  }
  if (options.threads < 0) {
    return Status::InvalidArgument("threads must be >= 0, got " +
                                   std::to_string(options.threads));
  }

  // Install the GEMM kernel before anything measures throughput: index
  // construction and the opening OPTIMUS decision below must run under
  // the kernel that will serve queries, or the decision is attributed to
  // the wrong hardware regime.  First use installs the MIPS_GEMM_KERNEL
  // override, else the probe's pick; callers that want a specific kernel
  // call ForceGemmKernel before Open.
  ActiveGemmKernel();

  std::unique_ptr<MipsEngine> engine(new MipsEngine());
  engine->users_ = users;
  engine->items_ = items;
  engine->options_ = options;

  for (const std::string& spec : options.solvers) {
    auto solver = SolverRegistry::Global().Create(spec);
    MIPS_RETURN_IF_ERROR(solver.status());
    engine->names_.push_back((*solver)->name());
    engine->specs_.push_back(spec);
    engine->solvers_.push_back(std::move(*solver));
  }
  if (options.shared_pool == nullptr && options.threads > 0) {
    engine->owned_pool_ = std::make_unique<ThreadPool>(options.threads);
  }
  ThreadPool* pool = engine->pool();

  // Build every candidate index.  Construction is a small share of
  // serving time per index (Figure 4), but N candidates over a large item
  // set is a real cold-start cost, so the builds run concurrently on the
  // engine pool when one exists.  The solvers are handed the pool only
  // AFTER this phase: a Prepare() that used the injected pool would be
  // waiting on the very pool its own task occupies (ThreadPool::Wait
  // deadlocks from inside a task), and withholding the pool makes that
  // impossible by construction rather than by convention.
  const std::size_t num_candidates = engine->solvers_.size();
  std::vector<Status> build_status(num_candidates);
  std::vector<double> build_seconds(num_candidates, 0);
  WallTimer build_timer;
  if (pool != nullptr && num_candidates > 1) {
    for (std::size_t s = 0; s < num_candidates; ++s) {
      pool->Submit([&engine, &users, &items, &build_status,
                    &build_seconds, s]() {
        WallTimer timer;
        build_status[s] = engine->solvers_[s]->Prepare(users, items);
        build_seconds[s] = timer.Seconds();
      });
    }
    // With a shared pool, Wait also drains tasks other pool users (e.g.
    // sibling shard engines opening concurrently) submitted; over-waiting
    // is harmless, waiting from inside a pool task is not (see
    // EngineOptions::shared_pool).
    pool->Wait();
  } else {
    for (std::size_t s = 0; s < num_candidates; ++s) {
      WallTimer timer;
      build_status[s] = engine->solvers_[s]->Prepare(users, items);
      build_seconds[s] = timer.Seconds();
    }
  }
  for (std::size_t s = 0; s < num_candidates; ++s) {
    MIPS_RETURN_IF_ERROR(build_status[s]);
  }
  const double build_wall_seconds = build_timer.Seconds();
  if (pool != nullptr) {
    for (auto& solver : engine->solvers_) {
      solver->set_thread_pool(pool);
    }
  }

  if (num_candidates == 1) {
    // Nothing to decide: serve with the only candidate.
    engine->report_.chosen = engine->names_[0];
    engine->report_.representation = engine->solvers_[0]->representation();
    engine->report_.gemm_kernel = ToString(ActiveGemmKernel());
    engine->report_.construction_seconds = build_seconds[0];
    engine->report_.total_seconds = build_wall_seconds;
    {
      WriterMutexLock lock(engine->decision_mu_);
      engine->InsertDecision(engine->OpeningKey(), 0);
    }
    return engine;
  }

  // The candidates are already Prepared (above, possibly in parallel), so
  // the decision only needs the sampling measurement.
  std::vector<MipsSolver*> raw;
  for (const auto& solver : engine->solvers_) raw.push_back(solver.get());
  Optimus optimus(options.optimus);
  std::size_t winner = 0;
  MIPS_RETURN_IF_ERROR(optimus.DecidePrepared(users, items, options.k, raw,
                                              &winner, &engine->report_));
  // DecidePrepared skipped construction; patch the measured per-candidate
  // build times into the report so its trace stays complete.
  for (std::size_t s = 0; s < num_candidates &&
                          s < engine->report_.estimates.size();
       ++s) {
    engine->report_.estimates[s].construction_seconds = build_seconds[s];
    // mips-tidy: allow(float-accumulation): wall-clock bookkeeping.
    engine->report_.construction_seconds += build_seconds[s];
  }
  engine->report_.total_seconds += build_wall_seconds;
  {
    WriterMutexLock lock(engine->decision_mu_);
    engine->InsertDecision(engine->OpeningKey(), winner);
  }
  return engine;
}

Index MipsEngine::ShapeBucket(Index rows) const {
  if (!options_.batch_shape_decisions) return 0;
  const Index capped =
      std::clamp<Index>(rows, 1, kMaxShapeBucket);
  return static_cast<Index>(std::bit_ceil(static_cast<uint32_t>(capped)));
}

void MipsEngine::InsertDecision(DecisionKey key, std::size_t winner) {
  decision_mu_.AssertHeld();
  // Re-inserting an invalidated key refreshes its entry.
  winner_by_k_.erase(key);
  winner_by_k_.emplace(
      std::piecewise_construct, std::forward_as_tuple(key),
      std::forward_as_tuple(
          winner, GemmKernelEpoch(),
          decision_generation_.load(std::memory_order_relaxed)));
  winner_by_k_.at(key).last_used.store(
      decision_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
      std::memory_order_relaxed);
  if (winner_by_k_.size() <= kDecisionCacheCapacity) return;
  // One insert overflows by at most one entry: evict the least-recently-
  // used key.  The opening decision is pinned: strategy() and stats()
  // rely on it being present.
  auto lru = winner_by_k_.end();
  uint64_t lru_stamp = std::numeric_limits<uint64_t>::max();
  for (auto it = winner_by_k_.begin(); it != winner_by_k_.end(); ++it) {
    if (it->first == OpeningKey()) continue;
    const uint64_t stamp = it->second.last_used.load(std::memory_order_relaxed);
    if (stamp < lru_stamp) {
      lru_stamp = stamp;
      lru = it;
    }
  }
  winner_by_k_.erase(lru);
  stats_.decision_cache_evictions.fetch_add(1, std::memory_order_relaxed);
}

bool MipsEngine::DecisionExpired(const CachedDecision& entry) const {
  decision_mu_.AssertReaderHeld();
  // Staleness only matters when a fresh decision is possible; a
  // single-candidate engine serves its candidate forever.
  if (solvers_.size() < 2) return false;
  // A kernel re-install changes the throughput regime every wall-clock
  // estimate in this entry was measured under; InvalidateDecisions
  // declares the data regime gone (e.g. a catalog swap).
  return entry.kernel_epoch != GemmKernelEpoch() ||
         entry.generation !=
             decision_generation_.load(std::memory_order_relaxed);
}

StatusOr<std::size_t> MipsEngine::StrategyFor(Index k, Index batch_rows) {
  const std::size_t forced = forced_.load(std::memory_order_acquire);
  if (forced != kNoForcedStrategy) return forced;
  const DecisionKey key{k, ShapeBucket(batch_rows)};
  {
    ReaderMutexLock lock(decision_mu_);
    auto it = winner_by_k_.find(key);
    if (it != winner_by_k_.end() && !DecisionExpired(it->second)) {
      // Recency bump under the shared lock: a relaxed store into the
      // entry's atomic stamp, so the hot path never takes the exclusive
      // lock.  Racing hits may reorder stamps slightly; LRU stays
      // approximate by a few requests, never wrong.
      it->second.last_used.store(
          decision_clock_.fetch_add(1, std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      stats_.decision_cache_hits.fetch_add(1, std::memory_order_relaxed);
      return it->second.winner;
    }
    // Unknown key, or a cached winner gone stale: both are misses.
    stats_.decision_cache_misses.fetch_add(1, std::memory_order_relaxed);
  }
  // Nothing to decide between: the only candidate serves every key.
  if (solvers_.size() < 2) return 0;
  // The opening shape and the query's (k, batch shape) diverged, or the
  // cached winner went stale: re-run the sampling decision for this key
  // and cache the winner.  The candidates were all Prepared at Open
  // (indexes are k-independent), so only the sampling measurement is
  // repeated.  For a shape bucket > 0 the sample is exactly bucket-many
  // users, so batching strategies are timed on a batch of the realized
  // size — a 64-row coalesced batch may flip the winner to BMM where
  // singletons picked an index.  The exclusive lock serializes
  // concurrent first-queries of the same new key: one caller measures,
  // the rest (re-checking under the lock) reuse its cached winner.
  WriterMutexLock lock(decision_mu_);
  bool invalidated = false;
  {
    auto it = winner_by_k_.find(key);
    if (it != winner_by_k_.end()) {
      if (!DecisionExpired(it->second)) return it->second.winner;
      // The stale entry stays in place until the fresh decision below
      // succeeds (InsertDecision replaces it), so a decision failure
      // never leaves the pinned opening decision missing.
      invalidated = true;
    }
  }
  std::vector<MipsSolver*> raw;
  for (const auto& solver : solvers_) raw.push_back(solver.get());
  OptimusOptions decision_options = options_.optimus;
  decision_options.fixed_sample_users = key.second;
  Optimus optimus(decision_options);
  std::size_t winner = 0;
  OptimusReport report;
  MIPS_RETURN_IF_ERROR(
      optimus.DecidePrepared(users_, items_, k, raw, &winner, &report));
  InsertDecision(key, winner);
  if (invalidated) {
    stats_.decision_cache_invalidations.fetch_add(1,
                                                  std::memory_order_relaxed);
  }
  stats_.redecisions.fetch_add(1, std::memory_order_relaxed);
  stats_.redecision_seconds.fetch_add(report.total_seconds,
                                      std::memory_order_relaxed);
  return winner;
}

Status MipsEngine::TopK(Index k, std::span<const Index> user_ids,
                        TopKResult* out) {
  MIPS_RETURN_IF_ERROR(CheckKnownUsers(k, user_ids));
  auto strategy = StrategyFor(k, static_cast<Index>(user_ids.size()));
  MIPS_RETURN_IF_ERROR(strategy.status());
  WallTimer timer;
  MIPS_RETURN_IF_ERROR(solvers_[*strategy]->TopKForUsers(k, user_ids, out));
  stats_.serve_seconds.fetch_add(timer.Seconds(), std::memory_order_relaxed);
  stats_.batches_served.fetch_add(1, std::memory_order_relaxed);
  stats_.users_served.fetch_add(static_cast<int64_t>(user_ids.size()),
                                std::memory_order_relaxed);
  return Status::OK();
}

const PackedItems& MipsEngine::PackedCatalog() {
  std::call_once(packed_once_, [this] {
    for (const auto& solver : solvers_) {
      if (const auto* bmm = dynamic_cast<const BmmSolver*>(solver.get())) {
        packed_items_ = bmm->packed_items();
        return;
      }
    }
    packed_items_ = std::make_shared<const PackedItems>(items_);
  });
  return *packed_items_;
}

Status MipsEngine::DenseScoreNewUsers(const Real* user_vectors,
                                      Index num_rows, Index k,
                                      TopKResult* out) {
  const Index f = items_.cols();
  *out = TopKResult(num_rows, k);
  std::vector<const Real*> rows(static_cast<std::size_t>(num_rows));
  for (Index r = 0; r < num_rows; ++r) {
    rows[static_cast<std::size_t>(r)] =
        user_vectors + static_cast<std::size_t>(r) * f;
  }
  FusedTopK(PackedCatalog(), rows, k, out, /*row_offset=*/0, pool());
  return Status::OK();
}

Status MipsEngine::ServeNewUsers(const Real* user_vectors, Index num_rows,
                                 Index k, TopKResult* out) {
  auto strategy = StrategyFor(k, num_rows);
  MIPS_RETURN_IF_ERROR(strategy.status());
  MipsSolver* solver = solvers_[*strategy].get();
  WallTimer timer;
  if (const auto* maximus = dynamic_cast<const MaximusSolver*>(solver)) {
    // Exact dynamic-user walk (Section III-E) over the whole batch: rows
    // grouped by nearest centroid share the blocked GEMM walk.
    MIPS_RETURN_IF_ERROR(
        maximus->TopKForNewUsers(user_vectors, num_rows, k, out));
  } else if (const auto* dynamic =
                 dynamic_cast<const DynamicMaximusSolver*>(solver)) {
    MIPS_RETURN_IF_ERROR(
        dynamic->TopKForNewUsers(user_vectors, num_rows, k, out));
  } else {
    // Every other strategy scores new users densely (their index
    // structures are keyed to the prepared user matrix): one blocked
    // GEMM over the whole coalesced batch — the batching win.
    MIPS_RETURN_IF_ERROR(DenseScoreNewUsers(user_vectors, num_rows, k, out));
  }
  stats_.serve_seconds.fetch_add(timer.Seconds(), std::memory_order_relaxed);
  stats_.new_users_served.fetch_add(num_rows, std::memory_order_relaxed);
  return Status::OK();
}

int64_t MipsEngine::InvalidateDecisions() {
  // Shared lock suffices: the generation is an atomic the bump publishes
  // to every later DecisionExpired check, and the size read only feeds
  // the retirement count.
  ReaderMutexLock lock(decision_mu_);
  decision_generation_.fetch_add(1, std::memory_order_relaxed);
  return static_cast<int64_t>(winner_by_k_.size());
}

Status MipsEngine::ForceStrategy(const std::string& name_or_spec) {
  // Solver name first; the exact opening spec disambiguates when two
  // candidates are tuned variants of the same solver.
  for (std::size_t s = 0; s < names_.size(); ++s) {
    if (names_[s] == name_or_spec) {
      forced_.store(s, std::memory_order_release);
      return Status::OK();
    }
  }
  for (std::size_t s = 0; s < specs_.size(); ++s) {
    if (specs_[s] == name_or_spec) {
      forced_.store(s, std::memory_order_release);
      return Status::OK();
    }
  }
  std::string candidates;
  for (const std::string& candidate : specs_) {
    if (!candidates.empty()) candidates += ", ";
    candidates += candidate;
  }
  return Status::NotFound("no candidate named \"" + name_or_spec +
                          "\" (candidates: " + candidates + ")");
}

void MipsEngine::ClearForcedStrategy() {
  forced_.store(kNoForcedStrategy, std::memory_order_release);
}

const std::string& MipsEngine::strategy() const {
  const std::size_t forced = forced_.load(std::memory_order_acquire);
  if (forced != kNoForcedStrategy) return names_[forced];
  ReaderMutexLock lock(decision_mu_);
  return names_[winner_by_k_.at(OpeningKey()).winner];
}

MipsEngine::Stats MipsEngine::stats() const {
  Stats snapshot;
  snapshot.batches_served = stats_.batches_served.load(std::memory_order_relaxed);
  snapshot.users_served = stats_.users_served.load(std::memory_order_relaxed);
  snapshot.new_users_served =
      stats_.new_users_served.load(std::memory_order_relaxed);
  snapshot.redecisions = stats_.redecisions.load(std::memory_order_relaxed);
  snapshot.serve_seconds = stats_.serve_seconds.load(std::memory_order_relaxed);
  snapshot.redecision_seconds =
      stats_.redecision_seconds.load(std::memory_order_relaxed);
  snapshot.decision_cache_hits =
      stats_.decision_cache_hits.load(std::memory_order_relaxed);
  snapshot.decision_cache_misses =
      stats_.decision_cache_misses.load(std::memory_order_relaxed);
  snapshot.decision_cache_evictions =
      stats_.decision_cache_evictions.load(std::memory_order_relaxed);
  snapshot.decision_cache_invalidations =
      stats_.decision_cache_invalidations.load(std::memory_order_relaxed);
  snapshot.gemm_kernel = ToString(ActiveGemmKernel());
  const std::size_t forced = forced_.load(std::memory_order_acquire);
  {
    ReaderMutexLock lock(decision_mu_);
    snapshot.decision_cache_size =
        static_cast<int64_t>(winner_by_k_.size());
    snapshot.representation =
        solvers_[forced != kNoForcedStrategy
                     ? forced
                     : winner_by_k_.at(OpeningKey()).winner]
            ->representation();
  }
  return snapshot;
}

}  // namespace mips
