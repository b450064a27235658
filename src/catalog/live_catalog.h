// LiveCatalog: exact MIPS serving over a catalog that mutates online.
//
// Every engine below this layer freezes its item set at Open().  A
// production catalog does not hold still — new items arrive, embeddings
// refresh, items are taken down — and the paper's central result makes
// mutation more than a storage problem: the index-vs-BMM winner is a
// function of the catalog's statistics (norm distribution, size), so a
// mutated catalog eventually needs a FRESH OPTIMUS decision, not just
// patched rows.  LiveCatalog layers mutability on top of the immutable
// engines with an epoch design:
//
//   * Base epoch — an immutable snapshot of the catalog (rows sorted by
//     ascending item id) served by one TopKBackend — a MipsEngine, or a
//     ShardedMipsEngine when num_shards > 1 — that made its own OPTIMUS
//     decision over exactly that snapshot.
//   * Write buffer — Insert/Update/Remove land in a small in-memory
//     buffer (an "active" layer, plus a "sealed" layer while a rebuild
//     is in flight).  Queries serve buffered rows exactly via a
//     brute-force side scan whose scores come from the same blocked-GEMM
//     accumulation order as every solver (GemmNT's per-element K-panel
//     fold is independent of the surrounding batch), merged into the
//     base engine's row through the library-wide BetterEntry k-way
//     merge.  Buffered versions mask their base predecessors through
//     per-layer dead-id sets; the base engine is over-queried by the
//     dead count so masking can never starve the merge.
//   * Background rebuild — once the buffer passes rebuild_threshold
//     mutations (or on an explicit Rebuild() call) a dedicated thread
//     folds the sealed buffer into a replacement snapshot, opens a fresh
//     engine over it — running the OPTIMUS decision anew on the mutated
//     statistics — and swaps it in under a brief exclusive lock.
//     Queries never wait on a rebuild: they briefly hold a shared lock
//     for the O(buffer) side scan and the epoch-pointer grab, and
//     in-flight queries drain on the retiring epoch via shared_ptr
//     reference counts (the retired engine is destroyed by whichever
//     query drops the last reference).
//
// Exactness contract: after any mutation sequence, every TopK answer
// reports exactly the items a cold Open() over the equivalent catalog —
// the matrix holding the live rows in ascending-id order — would
// report.  When the serving solver scores through the blocked GEMM
// (BMM-served catalogs), the answers are additionally BIT-FOR-BIT
// identical, including which of several exactly tied items each row
// reports.  Index solvers (maximus et al.) fold their scores through
// their own accumulation order (normalized blocked scores rescaled, or
// per-item dots), which differs from the canonical GEMM fold in the
// last ulp — so an index-served answer matches the cold open to that
// tolerance, the exact boundary the sharded engine's cross-shard merge
// has always had between differently-solved shards.  Three properties
// carry the proof: (1) the side scan scores buffered rows with the same
// fixed serial-GEMM fma fold a rebuilt epoch's BMM would report,
// (2) item ids are assigned monotonically and never reused, so the row
// order of any snapshot equals id order and the BetterEntry tie-break
// is preserved by the local-row -> global-id remap, and (3) each layer
// masks exactly the older versions it supersedes, so every live item is
// scored exactly once per query.
//
// Inputs: Insert and Update reject NaN and infinite coordinates with
// InvalidArgument (an item scored NaN has no place in the tie order),
// and queries take the TopKBackend argument checks.
//
// Thread safety: Insert/Update/Remove/TopK*/Rebuild/SaveSegment/stats()
// may be called from any number of threads concurrently after Open().
// Mutations are serialized by a writer lock held for O(f) work; queries
// share the lock only for the side scan.  Rebuild() blocks the CALLER
// until a rebuild started after the call installs; it never blocks
// queries or mutations.

#ifndef MIPS_CATALOG_LIVE_CATALOG_H_
#define MIPS_CATALOG_LIVE_CATALOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"
#include "core/engine.h"
#include "core/topk_backend.h"
#include "shard/partition.h"
#include "topk/result.h"

namespace mips {

/// Configuration for LiveCatalog::Open.
struct LiveCatalogOptions {
  /// Per-epoch engine configuration (decision k, candidate solver specs,
  /// optimus knobs, decision-cache policy).  Every rebuilt epoch reruns
  /// the OPTIMUS decision under these options over the folded catalog.
  EngineOptions engine;
  /// Item shards per epoch (1 = plain MipsEngine; > 1 = per-epoch
  /// ShardedMipsEngine with one decision per shard).
  int num_shards = 1;
  /// Placement policy for sharded epochs.  kGrowth pins a block size so
  /// appends land in the newest shard and prefix shards keep their rows
  /// across append-only rebuilds (shard/partition.h).
  ShardingStrategy sharding = ShardingStrategy::kContiguous;
  /// Pinned kGrowth block size (0 = derive from the epoch's item count).
  Index growth_block = 0;
  /// Worker threads for epoch engines (0 = single-threaded).  Unsharded
  /// epochs share one catalog-owned pool across swaps; sharded epochs
  /// own a pool per epoch (the sharded engine's contract).
  int threads = 0;
  /// Buffered mutations that trigger a background rebuild (0 = rebuild
  /// only on explicit Rebuild() calls).
  int64_t rebuild_threshold = 0;
};

/// Exact MIPS over an online-mutable catalog; see the file comment.
class LiveCatalog : public TopKBackend {
 public:
  /// Opens over an initial item catalog (rows become items 0..n-1; the
  /// views must outlive the catalog).  `items` may be an empty view —
  /// the catalog then starts engine-less and serves purely from the
  /// write buffer until the first rebuild.
  static StatusOr<std::unique_ptr<LiveCatalog>> Open(
      const ConstRowBlock& users, const ConstRowBlock& items,
      const LiveCatalogOptions& options = {});

  /// Blocks until any in-flight rebuild finishes, then joins its thread.
  ~LiveCatalog() override;

  LiveCatalog(const LiveCatalog&) = delete;
  LiveCatalog& operator=(const LiveCatalog&) = delete;

  /// Adds a new item; returns its permanent id.  Ids are assigned
  /// monotonically and never reused (a removed id stays dead forever) —
  /// the invariant the exactness proof's tie-order argument rests on.
  /// InvalidArgument for a wrong-width or non-finite vector.
  StatusOr<Index> Insert(std::span<const Real> vector)
      EXCLUDES(state_mu_, rebuild_mu_);
  /// Replaces the vector of a live item.  NotFound for dead/unknown ids,
  /// InvalidArgument for a wrong-width or non-finite vector.
  Status Update(Index id, std::span<const Real> vector)
      EXCLUDES(state_mu_, rebuild_mu_);
  /// Removes a live item.  NotFound for dead/unknown ids.
  Status Remove(Index id) EXCLUDES(state_mu_, rebuild_mu_);

  /// Exact top-K over the LIVE catalog for a mini-batch of known users;
  /// entry ids are catalog item ids.  Safe for concurrent callers; never
  /// blocks on a rebuild.
  Status TopK(Index k, std::span<const Index> user_ids,
              TopKResult* out) override EXCLUDES(state_mu_);
  /// Exact top-K for `num_rows` new-user vectors (row-major).  Row r
  /// depends only on input row r, so a serving layer may coalesce
  /// batches across epoch swaps without changing any answer.
  Status TopKNewUsers(const Real* user_vectors, Index num_rows, Index k,
                      TopKResult* out) override EXCLUDES(state_mu_);

  /// Retires the current epoch engine's cached decisions.
  int64_t InvalidateDecisions() override EXCLUDES(state_mu_);
  /// The current epoch engine's strategy summary ("" while engine-less).
  std::string StrategySummary() const override EXCLUDES(state_mu_);

  /// Folds the write buffer into a fresh epoch NOW and waits for the
  /// swap, so every mutation made before the call is in the installed
  /// epoch.  A rebuild already in flight sealed its buffer earlier, so it
  /// is waited out first.  No-op when nothing is buffered.  Queries keep
  /// flowing while this caller waits.
  Status Rebuild() EXCLUDES(rebuild_mu_, state_mu_);

  /// Persists the live catalog (rows in ascending-id order) to `path`
  /// via CatalogSegment's atomic-rename protocol.  Reopening the segment
  /// compacts ids to 0..n-1 in the same order.
  Status SaveSegment(const std::string& path) const EXCLUDES(state_mu_);

  Index num_users() const override { return users_.rows(); }
  Index num_factors() const override { return users_.cols(); }
  /// Live item count (base + buffered - removed).
  Index num_items() const override EXCLUDES(state_mu_);
  /// Monotone epoch counter, bumped at every swap install.  Lock-free —
  /// cheap enough to sample around individual queries (bench harnesses
  /// use it to attribute latency to swap windows).
  int64_t catalog_epoch() const {
    return catalog_epoch_.load(std::memory_order_relaxed);
  }

  /// Cumulative mutation / rebuild / drain counters.  Each field is
  /// individually consistent; fields may be mutually skewed by in-flight
  /// requests.
  struct Stats {
    /// Swap generation: bumped once per installed epoch.  The per-epoch
    /// engines' decision caches die with their epoch, and the retiring
    /// engine's surviving decisions are additionally invalidated through
    /// MipsEngine::InvalidateDecisions (counted in decisions_retired).
    int64_t catalog_epoch = 0;
    int64_t inserts = 0;
    int64_t updates = 0;
    int64_t removes = 0;
    int64_t rebuilds_started = 0;
    /// Epochs installed (successful rebuilds).
    int64_t swaps = 0;
    /// Retired epochs fully drained (last in-flight reference dropped).
    int64_t epochs_drained = 0;
    /// Cached per-k decisions retired with their epochs at swap time.
    int64_t decisions_retired = 0;
    bool rebuild_running = false;
    Index live_items = 0;
    /// Rows in the current base snapshot (lags live_items by the buffer).
    Index base_items = 0;
    /// Buffered rows a query's side scan currently covers (sealed +
    /// active, tombstones included).
    Index buffered_rows = 0;
    /// Ids currently masked out of older layers (dead-set union size).
    Index dead_masked = 0;
    /// Strategy serving the current base epoch ("" while engine-less;
    /// per-shard strategies joined with "," for sharded epochs).
    std::string base_strategy;
  };
  Stats stats() const EXCLUDES(state_mu_, rebuild_mu_);

 private:
  /// One mutation layer.  `data` holds num_rows() row-major vectors;
  /// ids[row] is the row's catalog id (-1 = tombstoned in place).  `dead`
  /// masks every OLDER layer's version of an id (update supersedes,
  /// remove deletes); a layer's own rows are never in its own dead set.
  struct WriteBuffer {
    std::vector<Real> data;
    std::vector<Index> ids;
    std::unordered_map<Index, Index> row_of_id;
    std::unordered_set<Index> dead;
    int64_t mutations = 0;

    Index num_rows() const { return static_cast<Index>(ids.size()); }
  };

  /// One immutable catalog snapshot + the engine serving it.  Held by
  /// shared_ptr: queries pin the epoch they started on, and the dtor —
  /// run by whichever thread drops the last reference — counts the
  /// drain.
  struct Epoch {
    /// Row storage for rebuilt epochs (empty for the view-backed initial
    /// epoch, whose rows live in the caller's matrix or a mapped
    /// segment).
    Matrix owned;
    /// The snapshot rows, ascending-id order.
    ConstRowBlock items;
    /// Row -> catalog id, strictly ascending (so local-row tie order is
    /// id tie order).
    std::vector<Index> ids;
    /// The engine serving the snapshot (null while the epoch is empty).
    std::unique_ptr<TopKBackend> backend;
    /// Bumped by ~Epoch so the catalog's stats() can report drains after
    /// the epoch object itself is gone.
    std::shared_ptr<std::atomic<int64_t>> drain_counter;

    ~Epoch();
    bool Contains(Index id) const;  // binary search over ids
  };

  LiveCatalog() = default;

  /// True while `id` resolves to a live row in some layer.
  bool IsLive(Index id) const REQUIRES_SHARED(state_mu_);
  /// Whether the active buffer crossed rebuild_threshold.
  bool RebuildDue() const REQUIRES_SHARED(state_mu_);
  /// Appends one f-wide row for `id` to `buffer`.
  static void AppendRow(WriteBuffer* buffer, Index id, const Real* row,
                        Index f);
  /// Brute-force side scan of one buffer layer: scores every live,
  /// unmasked row against the query batch with the blocked GEMM (the
  /// same per-element fma fold every solver reports) and returns
  /// per-query top-k rows of GLOBAL ids, sentinel-padded, in BetterEntry
  /// order.
  static std::vector<TopKEntry> ScanBuffer(
      const WriteBuffer& buffer, const std::unordered_set<Index>* mask,
      const Real* vectors, Index num_rows, Index f, Index k);

  /// Shared query spine: side scans + base query + 3-way merge.  For
  /// known users `user_ids` selects base rows and `vectors` holds the
  /// same users' vectors gathered contiguously; for new users `user_ids`
  /// is empty and `vectors` points at the caller's batch.
  Status Query(Index k, std::span<const Index> user_ids,
               const Real* vectors, Index num_rows, TopKResult* out)
      EXCLUDES(state_mu_);

  /// Starts the background rebuild if one is not running and there is
  /// anything to fold; returns whether a rebuild is now in flight.
  bool StartRebuildLocked() REQUIRES(rebuild_mu_) EXCLUDES(state_mu_);
  /// Rebuild-thread body: fold, open, install, signal completion.
  void RebuildAndInstall(std::shared_ptr<Epoch> base,
                         std::shared_ptr<const WriteBuffer> sealed)
      EXCLUDES(rebuild_mu_, state_mu_);
  /// Folds `sealed` into `base` and opens a fresh engine (fresh OPTIMUS
  /// decision) over the merged snapshot.
  StatusOr<std::shared_ptr<Epoch>> BuildEpoch(const Epoch& base,
                                              const WriteBuffer& sealed);
  /// Opens the engine (sharded or not) for a snapshot epoch in place.
  Status OpenEpochEngine(Epoch* epoch);
  /// Swaps `next` in as the serving epoch and retires the old one.
  void InstallEpoch(std::shared_ptr<Epoch> next) EXCLUDES(state_mu_);
  /// Kicks the background rebuild when the buffer crossed the threshold.
  void MaybeStartRebuild(bool should_rebuild)
      EXCLUDES(rebuild_mu_, state_mu_);

  ConstRowBlock users_;
  LiveCatalogOptions options_;
  /// Pool shared by unsharded epoch engines across swaps (null when
  /// threads == 0 or epochs are sharded).
  std::unique_ptr<ThreadPool> pool_;

  /// Guards the serving state.  Shared: queries (epoch/sealed pointer
  /// grab + active-buffer side scan) and read-only snapshots.  Exclusive:
  /// mutations, sealing, and the epoch swap — all O(f) or O(1).
  mutable SharedMutex state_mu_;
  std::shared_ptr<Epoch> epoch_ GUARDED_BY(state_mu_);  // never null
  /// Immutable buffer being folded by the in-flight rebuild (null
  /// otherwise).  Masked by active_.dead, masks the base.
  std::shared_ptr<const WriteBuffer> sealed_ GUARDED_BY(state_mu_);
  WriteBuffer active_ GUARDED_BY(state_mu_);
  Index next_id_ GUARDED_BY(state_mu_) = 0;
  Index live_items_ GUARDED_BY(state_mu_) = 0;

  /// Rebuild lifecycle.  Lock order: rebuild_mu_ before state_mu_ (the
  /// seal step nests them); never the reverse.
  mutable Mutex rebuild_mu_;
  CondVar rebuild_done_;
  bool rebuild_running_ GUARDED_BY(rebuild_mu_) = false;
  std::thread rebuild_thread_ GUARDED_BY(rebuild_mu_);
  Status last_rebuild_error_ GUARDED_BY(rebuild_mu_) = Status::OK();

  std::atomic<int64_t> catalog_epoch_{0};
  std::atomic<int64_t> inserts_{0};
  std::atomic<int64_t> updates_{0};
  std::atomic<int64_t> removes_{0};
  std::atomic<int64_t> rebuilds_started_{0};
  std::atomic<int64_t> swaps_{0};
  std::atomic<int64_t> decisions_retired_{0};
  /// Shared with every Epoch; see Epoch::drain_counter.
  std::shared_ptr<std::atomic<int64_t>> epochs_drained_ =
      std::make_shared<std::atomic<int64_t>>(0);
};

}  // namespace mips

#endif  // MIPS_CATALOG_LIVE_CATALOG_H_
