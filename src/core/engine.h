// MipsEngine: the one configuration-driven entry point for exact MIPS
// serving over one catalog, and the TopKBackend (core/topk_backend.h)
// the sharded and live-catalog layers are built from.
//
// Callers hand Open() a model plus candidate strategies *as specs*
// ("bmm", "maximus:clusters=64", ...).  The engine builds every
// candidate via the solver registry (concurrently, on the engine's pool,
// when threads > 0), runs the OPTIMUS decision once at the configured k,
// owns the solvers and the optional thread pool, and then serves:
//
//   * TopK(k, user_ids)   — mini-batches of known users at any k.  When
//     a call's k diverges from the k the decision was made at, the
//     engine re-runs the (cheap, sampling-based) decision for the new k
//     and caches the winner — or falls back to the opening winner when
//     re-deciding is disabled.  Either way every answer stays exact.
//   * TopKNewUsers(...)   — vectors outside the prepared user matrix
//     (Section III-E): MAXIMUS's dynamic walk when a MAXIMUS-family
//     strategy is chosen, the fused dense scorer otherwise.
//
// TopKAll, TopKNewUser and the argument checks come from TopKBackend.
// ForceStrategy() overrides the optimizer by candidate name (benches,
// lesion studies, operator escape hatch); stats() snapshots cumulative
// serving counters.
//
// Thread safety (the contract the multi-client server relies on):
//
//   * After Open() returns, TopK / TopKAll / TopKNewUser / stats() /
//     strategy() may be called from any number of threads concurrently.
//     Candidate indexes are read-only at query time; the per-k decision
//     cache is guarded by a shared mutex so the hot path (k already
//     decided) takes only a shared lock, and the exclusive lock is held
//     only while a brand-new k runs Optimus::DecidePrepared.  Concurrent
//     callers of other, already-cached ks briefly queue behind that
//     decision; exactness is never affected.
//   * stats() counters are atomics; the returned snapshot is internally
//     consistent per field (not across fields).
//   * ForceStrategy / ClearForcedStrategy are safe to call concurrently
//     with queries; in-flight batches may finish on the previous
//     strategy.
//   * The `threads` pool is shared by all candidates and by concurrent
//     callers: a batch's ParallelFor chunks simply interleave with other
//     batches' chunks in the pool's FIFO queue.

#ifndef MIPS_CORE_ENGINE_H_
#define MIPS_CORE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/optimus.h"
#include "core/topk_backend.h"
#include "solvers/solver.h"
#include "topk/fused_topk.h"

namespace mips {

/// Configuration for MipsEngine::Open.
struct EngineOptions {
  /// The k the opening OPTIMUS decision is made at (queries may use any
  /// k; see redecide_on_new_k).
  Index k = 10;
  /// Candidate strategies as registry specs.  One candidate skips the
  /// decision; two or more run OPTIMUS.
  std::vector<std::string> solvers = {"bmm", "maximus"};
  /// Optimizer knobs for the opening (and any per-k re-) decision.
  OptimusOptions optimus;
  /// Worker threads owned by the engine and shared by all candidates
  /// (0 = single-threaded).  Also used to build the candidate indexes
  /// concurrently during Open.  Ignored when `shared_pool` is set.
  int threads = 0;
  /// Optional externally owned worker pool.  When non-null the engine
  /// uses it instead of creating its own (and `threads` is ignored); the
  /// pool must outlive the engine.  ShardedMipsEngine uses this to run N
  /// shard engines on one pool.  The caller must not Open() the engine
  /// from inside a task running ON this pool — Open waits on the pool for
  /// the candidate builds, and ThreadPool::Wait from inside a task
  /// deadlocks.
  ThreadPool* shared_pool = nullptr;
  /// When a query's k has no cached decision: true re-runs the OPTIMUS
  /// decision at that k (and caches it), false reuses the opening
  /// winner.  Exactness is unaffected either way.
  bool redecide_on_new_k = true;
  /// Upper bound on cached per-k decisions (the opening k is pinned and
  /// counts toward the bound; it is never evicted).  When a new k's
  /// decision would exceed the bound, the least-recently-used cached k is
  /// evicted — a later query at that k re-decides.  Bounds the memory an
  /// adversarial stream of distinct ks can pin.  0 = unbounded.
  int decision_cache_capacity = 64;
  /// Time-to-live for cached per-k winners, in seconds (0 = never
  /// expire).  Eviction only bounds memory; a TTL bounds STALENESS: a
  /// winner measured under one load profile (or one installed GEMM
  /// kernel) expires, and the next query at that k re-runs the sampling
  /// decision — including the pinned opening k.  Expirations are counted
  /// in Stats::decision_cache_expirations.  Ignored when re-deciding is
  /// impossible (redecide_on_new_k = false, or a single candidate):
  /// expiring an entry that cannot be re-measured would serve nothing.
  double decision_ttl_seconds = 0;
  /// When true, per-k decisions additionally key on the REALIZED BATCH
  /// SHAPE: a query's row count is bucketed to the next power of two
  /// (capped at kMaxShapeBucket) and each (k, bucket) pair gets
  /// its own sampling decision, measured on a bucket-sized batch
  /// (OptimusOptions::fixed_sample_users).  This is the paper's central
  /// trade-off surfacing at serve time: a 64-row coalesced batch
  /// amortizes the GEMM's item-panel sweep and may pick BMM where each
  /// singleton picked an index probe.  Off by default — the population-
  /// scale per-k decision (bucket 0) then serves every shape, preserving
  /// the pre-existing behavior.  Decisions share the LRU/TTL cache
  /// machinery either way.  BatchingEngine (serve/batching_engine.h)
  /// turns this on for its backend.
  bool batch_shape_decisions = false;
  /// Which GEMM micro-kernel the engine's BMM/index GEMMs dispatch to
  /// (linalg/simd_dispatch.h).  "auto" keeps the process-wide choice
  /// (MIPS_GEMM_KERNEL env override, else the startup micro-probe);
  /// "avx512" / "avx2" / "portable" force-install that kernel
  /// process-wide before the opening decision (Open fails if it is not
  /// supported on this machine).  The installed kernel is recorded in
  /// stats() and in the OPTIMUS decision report.
  std::string gemm_kernel = "auto";
};

/// A long-lived exact-MIPS serving engine over one (users, items) model.
/// The model views must outlive the engine.  See the file comment for the
/// thread-safety contract.
class MipsEngine : public TopKBackend {
 public:
  /// Largest shape bucket when batch_shape_decisions is set; batches
  /// beyond it share the cap bucket's decision (amortization has
  /// saturated by then).
  static constexpr Index kMaxShapeBucket = 128;

  /// Builds the candidates from their specs, prepares them (in parallel
  /// on the engine pool when threads > 0), and runs the opening OPTIMUS
  /// decision.  Spec errors (unknown solver, unknown or ill-typed
  /// parameter) are returned verbatim from the registry.
  static StatusOr<std::unique_ptr<MipsEngine>> Open(
      const ConstRowBlock& users, const ConstRowBlock& items,
      const EngineOptions& options = {});

  /// Exact top-K for a mini-batch of known users (ids into the engine's
  /// user matrix), served by the strategy decided for this k.  Safe for
  /// concurrent callers.
  Status TopK(Index k, std::span<const Index> user_ids,
              TopKResult* out) override;

  /// Exact top-K for a mini-batch of `num_rows` new-user vectors, stored
  /// contiguously row-major (num_rows x num_factors) at `user_vectors`.
  /// This is the serve-side coalescing path (serve/batching_engine.h):
  /// when the serving strategy is MAXIMUS-family each row runs the exact
  /// dynamic-user walk; otherwise the whole batch is scored with one
  /// blocked GEMM against the item matrix — the batching win the paper's
  /// Clipper-style setting exists to exploit.  Row r of *out depends only
  /// on row r of the input (the GEMM accumulates each score over the
  /// factor axis in a fixed order independent of the batch's row count),
  /// so results are bit-for-bit identical whether a vector is served
  /// alone or coalesced into any batch.  Safe for concurrent callers.
  Status TopKNewUsers(const Real* user_vectors, Index num_rows, Index k,
                      TopKResult* out) override;

  /// Logically drops every cached per-(k, shape) decision by bumping the
  /// engine's decision generation — the same lazily-checked idiom as the
  /// GEMM kernel install epoch: entries created under an older
  /// generation report expired at their next lookup and the query
  /// re-runs the sampling decision (counted as a cache invalidation).
  /// For an embedding catalog layer this is the "statistics changed"
  /// hook: after an item-set swap, winners measured on the old catalog
  /// no longer describe reality.  Returns the number of decisions cached
  /// at the bump (how many were retired).  When re-deciding is
  /// impossible (single candidate, or redecide_on_new_k = false) the
  /// bump is a no-op on serving — the opening winner keeps serving, and
  /// exactness is unaffected either way.  Safe to call concurrently with
  /// queries.
  int64_t InvalidateDecisions() override EXCLUDES(decision_mu_);

  /// Overrides the optimizer: every subsequent query uses the candidate
  /// whose solver name — or, for tuned variants of the same solver,
  /// whose exact opening spec — matches `name_or_spec`.  NotFound if no
  /// candidate matches.
  Status ForceStrategy(const std::string& name_or_spec);
  /// Returns to decision-driven strategy selection.
  void ClearForcedStrategy();

  /// Name of the strategy serving the engine's decision k right now
  /// (the forced strategy when one is set).
  const std::string& strategy() const EXCLUDES(decision_mu_);
  std::string StrategySummary() const override { return strategy(); }
  /// The opening decision trace (empty estimates for single-candidate
  /// engines).
  const OptimusReport& decision_report() const { return report_; }
  /// Solver names of the candidates, in spec order.  Two tuned variants
  /// of the same solver share a name; candidate_specs() disambiguates.
  const std::vector<std::string>& candidate_names() const { return names_; }
  /// The opening specs, verbatim, in order.
  const std::vector<std::string>& candidate_specs() const { return specs_; }

  Index num_users() const override { return users_.rows(); }
  Index num_items() const override { return items_.rows(); }
  Index num_factors() const override { return items_.cols(); }

  /// Snapshot of the cumulative serving statistics.  Each field is
  /// individually consistent; fields may be mutually skewed by in-flight
  /// requests.
  struct Stats {
    int64_t batches_served = 0;
    int64_t users_served = 0;
    int64_t new_users_served = 0;
    /// Per-k OPTIMUS re-decisions triggered by diverging query ks.
    int64_t redecisions = 0;
    double serve_seconds = 0;
    double redecision_seconds = 0;
    /// Decision-cache accounting: a hit is a query whose k already has a
    /// cached winner; a miss triggers either a re-decision or the
    /// opening-winner fallback (redecide_on_new_k = false).  Evictions
    /// count cached ks dropped to keep the cache within
    /// decision_cache_capacity; size is the current entry count.
    int64_t decision_cache_hits = 0;
    int64_t decision_cache_misses = 0;
    int64_t decision_cache_evictions = 0;
    /// Cached winners dropped because they outlived decision_ttl_seconds
    /// (each one also counts as a miss for the query that found it
    /// stale).
    int64_t decision_cache_expirations = 0;
    /// Cached winners dropped because the GEMM kernel was re-installed
    /// after they were measured (ForceGemmKernel mid-flight): the
    /// throughput regime they were decided under no longer exists, so
    /// the next query re-decides immediately instead of waiting out the
    /// TTL.  Each one also counts as a miss.
    int64_t decision_cache_invalidations = 0;
    int64_t decision_cache_size = 0;
    /// The GEMM micro-kernel installed at snapshot time ("portable",
    /// "avx2", "avx512") — the throughput regime every wall-clock
    /// decision in this engine was measured under.
    std::string gemm_kernel;
    /// Item-catalog representation of the strategy serving the engine's
    /// decision k right now ("dense", "sparse", "hybrid") — the forced
    /// strategy's when one is set, else the opening winner's.
    std::string representation;
  };
  Stats stats() const EXCLUDES(decision_mu_);

 private:
  MipsEngine() = default;

  /// Decision-cache key: the query k plus the realized-batch-shape
  /// bucket (0 = the population-scale decision; a power of two when
  /// batch_shape_decisions keys on shape).
  using DecisionKey = std::pair<Index, Index>;
  /// The pinned opening decision's key.
  DecisionKey OpeningKey() const { return {options_.k, 0}; }
  /// Shape bucket for a batch of `rows` (0 when shape-keying is off).
  Index ShapeBucket(Index rows) const;

  /// Index into solvers_ of the strategy serving a k/batch-shape pair
  /// (decides and caches on a miss).  Lock-free-ish hot path: shared
  /// lock on a cache hit, exclusive lock (serializing the decision) on a
  /// miss, a TTL-expired winner, or a kernel-epoch-invalidated winner.
  StatusOr<std::size_t> StrategyFor(Index k, Index batch_rows)
      EXCLUDES(decision_mu_);

  struct CachedDecision;
  /// Whether `entry` outlived decision_ttl_seconds or was measured under
  /// a GEMM kernel that has since been re-installed (always false when
  /// re-deciding is impossible).  `entry` points into winner_by_k_, so
  /// the caller must hold decision_mu_ at least shared.
  bool DecisionExpired(const CachedDecision& entry) const
      REQUIRES_SHARED(decision_mu_);

  /// The catalog packed for the fused scorer, made on first use: the bmm
  /// candidate's packing when the engine has one, else packed here once.
  const PackedItems& PackedCatalog();

  /// Dense-scoring fallback for new-user batches: the fused GEMM + top-K
  /// scorer over PackedCatalog().  Used for every non-MAXIMUS-family
  /// strategy (a new user has no row in any prepared index's user-side
  /// structures).
  Status DenseScoreNewUsers(const Real* user_vectors, Index num_rows,
                            Index k, TopKResult* out);

  /// The pool serving this engine: the shared external pool when one was
  /// injected, else the engine-owned pool (null = single-threaded).
  ThreadPool* pool() const {
    return options_.shared_pool != nullptr ? options_.shared_pool
                                           : owned_pool_.get();
  }

  ConstRowBlock users_;
  ConstRowBlock items_;
  /// Set once by PackedCatalog(), under packed_once_.
  std::once_flag packed_once_;
  std::shared_ptr<const PackedItems> packed_items_;
  EngineOptions options_;
  std::unique_ptr<ThreadPool> owned_pool_;
  std::vector<std::unique_ptr<MipsSolver>> solvers_;
  std::vector<std::string> names_;  // solver names, parallel to solvers_
  std::vector<std::string> specs_;  // opening specs, parallel to solvers_

  /// One cached per-(k, shape) decision.  `last_used` is a recency stamp
  /// from decision_clock_, bumped with a relaxed store on every
  /// (shared-locked) hit; eviction drops the smallest stamp.  `created`
  /// is the TTL anchor and `kernel_epoch` the GEMM-kernel install count
  /// the decision was measured under: both written once at insertion
  /// (under the exclusive lock, so they are safely published to
  /// shared-lock readers).  Stored in a node-based map so the atomic
  /// member never needs to move.
  struct CachedDecision {
    CachedDecision(std::size_t w, std::chrono::steady_clock::time_point t,
                   uint64_t epoch, uint64_t gen)
        : winner(w), created(t), kernel_epoch(epoch), generation(gen) {}
    std::size_t winner;
    std::chrono::steady_clock::time_point created;
    uint64_t kernel_epoch;
    /// decision_generation_ at insertion; a mismatch at lookup means
    /// InvalidateDecisions ran since and the entry is stale.
    uint64_t generation;
    mutable std::atomic<uint64_t> last_used{0};
  };

  /// Guards winner_by_k_.  Shared: cache lookups.  Exclusive: inserting
  /// the winner for a new key (held across DecidePrepared so one decision
  /// runs at a time and latecomers reuse its result) and evicting.
  mutable SharedMutex decision_mu_;
  std::map<DecisionKey, CachedDecision> winner_by_k_
      GUARDED_BY(decision_mu_);
  std::atomic<uint64_t> decision_clock_{0};
  /// Bumped by InvalidateDecisions; stamped into every cached decision.
  std::atomic<uint64_t> decision_generation_{0};

  /// Caches `winner` for `key`, evicting the least-recently-used
  /// non-pinned entries while the cache exceeds capacity.
  void InsertDecision(DecisionKey key, std::size_t winner)
      REQUIRES(decision_mu_);

  std::atomic<std::size_t> forced_{kNoForcedStrategy};
  OptimusReport report_;

  struct AtomicStats {
    std::atomic<int64_t> batches_served{0};
    std::atomic<int64_t> users_served{0};
    std::atomic<int64_t> new_users_served{0};
    std::atomic<int64_t> redecisions{0};
    std::atomic<double> serve_seconds{0};
    std::atomic<double> redecision_seconds{0};
    std::atomic<int64_t> decision_cache_hits{0};
    std::atomic<int64_t> decision_cache_misses{0};
    std::atomic<int64_t> decision_cache_evictions{0};
    std::atomic<int64_t> decision_cache_expirations{0};
    std::atomic<int64_t> decision_cache_invalidations{0};
  };
  AtomicStats stats_;

  static constexpr std::size_t kNoForcedStrategy =
      static_cast<std::size_t>(-1);
};

}  // namespace mips

#endif  // MIPS_CORE_ENGINE_H_
