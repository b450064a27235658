#include "catalog/live_catalog.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>
#include <utility>

#include "catalog/segment.h"
#include "linalg/gemm.h"
#include "shard/sharded_engine.h"
#include "topk/merge.h"
#include "topk/topk_heap.h"

namespace mips {
namespace {

constexpr TopKEntry kSentinel{-1, -std::numeric_limits<Real>::infinity()};

std::vector<TopKEntry> SentinelRows(Index num_rows, Index k) {
  return std::vector<TopKEntry>(
      static_cast<std::size_t>(num_rows) * static_cast<std::size_t>(k),
      kSentinel);
}

}  // namespace

LiveCatalog::Epoch::~Epoch() {
  if (drain_counter != nullptr) {
    drain_counter->fetch_add(1, std::memory_order_relaxed);
  }
}

bool LiveCatalog::Epoch::Contains(Index id) const {
  return std::binary_search(ids.begin(), ids.end(), id);
}

StatusOr<std::unique_ptr<LiveCatalog>> LiveCatalog::Open(
    const ConstRowBlock& users, const ConstRowBlock& items,
    const LiveCatalogOptions& options) {
  if (users.rows() <= 0) {
    return Status::InvalidArgument("user set must be non-empty");
  }
  if (items.rows() > 0 && items.cols() != users.cols()) {
    return Status::InvalidArgument("user/item factor dimensions differ");
  }
  if (options.num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1, got " +
                                   std::to_string(options.num_shards));
  }
  if (options.threads < 0) {
    return Status::InvalidArgument("threads must be >= 0, got " +
                                   std::to_string(options.threads));
  }
  if (options.rebuild_threshold < 0) {
    return Status::InvalidArgument(
        "rebuild_threshold must be >= 0, got " +
        std::to_string(options.rebuild_threshold));
  }

  std::unique_ptr<LiveCatalog> catalog(new LiveCatalog());
  catalog->users_ = users;
  catalog->options_ = options;
  if (options.threads > 0 && options.num_shards <= 1) {
    catalog->pool_ = std::make_unique<ThreadPool>(options.threads);
  }

  auto epoch = std::make_shared<Epoch>();
  epoch->items = items;
  epoch->ids.resize(static_cast<std::size_t>(items.rows()));
  std::iota(epoch->ids.begin(), epoch->ids.end(), Index{0});
  if (items.rows() > 0) {
    MIPS_RETURN_IF_ERROR(catalog->OpenEpochEngine(epoch.get()));
  }
  epoch->drain_counter = catalog->epochs_drained_;
  {
    WriterMutexLock lock(catalog->state_mu_);
    catalog->epoch_ = std::move(epoch);
    catalog->next_id_ = items.rows();
    catalog->live_items_ = items.rows();
  }
  return catalog;
}

LiveCatalog::~LiveCatalog() {
  MutexLock lock(rebuild_mu_);
  while (rebuild_running_) rebuild_done_.Wait(lock);
  // The thread already published rebuild_running_ = false under
  // rebuild_mu_ as its last locked act, so joining here cannot deadlock.
  if (rebuild_thread_.joinable()) rebuild_thread_.join();
}

Status LiveCatalog::OpenEpochEngine(Epoch* epoch) {
  if (options_.num_shards <= 1) {
    EngineOptions engine_options = options_.engine;
    engine_options.threads = 0;
    engine_options.shared_pool = pool_.get();
    auto engine = MipsEngine::Open(users_, epoch->items, engine_options);
    MIPS_RETURN_IF_ERROR(engine.status());
    epoch->backend = std::move(*engine);
    return Status::OK();
  }
  ShardedEngineOptions sharded_options;
  sharded_options.num_shards = options_.num_shards;
  sharded_options.sharding = options_.sharding;
  sharded_options.engine = options_.engine;
  sharded_options.threads = options_.threads;
  auto engine = ShardedMipsEngine::Open(users_, epoch->items,
                                        sharded_options);
  MIPS_RETURN_IF_ERROR(engine.status());
  epoch->backend = std::move(*engine);
  return Status::OK();
}

bool LiveCatalog::IsLive(Index id) const {
  if (active_.row_of_id.find(id) != active_.row_of_id.end()) return true;
  if (active_.dead.find(id) != active_.dead.end()) return false;
  if (sealed_ != nullptr) {
    if (sealed_->row_of_id.find(id) != sealed_->row_of_id.end()) return true;
    if (sealed_->dead.find(id) != sealed_->dead.end()) return false;
  }
  return epoch_->Contains(id);
}

bool LiveCatalog::RebuildDue() const {
  return options_.rebuild_threshold > 0 &&
         active_.mutations >= options_.rebuild_threshold;
}

void LiveCatalog::AppendRow(WriteBuffer* buffer, Index id, const Real* row,
                            Index f) {
  const Index local = buffer->num_rows();
  buffer->data.insert(buffer->data.end(), row,
                      row + static_cast<std::size_t>(f));
  buffer->ids.push_back(id);
  buffer->row_of_id.emplace(id, local);
}

StatusOr<Index> LiveCatalog::Insert(std::span<const Real> vector) {
  const Index f = num_factors();
  if (static_cast<Index>(vector.size()) != f) {
    return Status::InvalidArgument(
        "vector has " + std::to_string(vector.size()) + " factors, want " +
        std::to_string(f));
  }
  MIPS_RETURN_IF_ERROR(CheckFinite(vector, "item vector"));
  Index id = -1;
  bool should_rebuild = false;
  {
    WriterMutexLock lock(state_mu_);
    id = next_id_++;
    AppendRow(&active_, id, vector.data(), f);
    ++active_.mutations;
    ++live_items_;
    should_rebuild = RebuildDue();
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  MaybeStartRebuild(should_rebuild);
  return id;
}

Status LiveCatalog::Update(Index id, std::span<const Real> vector) {
  const Index f = num_factors();
  if (static_cast<Index>(vector.size()) != f) {
    return Status::InvalidArgument(
        "vector has " + std::to_string(vector.size()) + " factors, want " +
        std::to_string(f));
  }
  MIPS_RETURN_IF_ERROR(CheckFinite(vector, "item vector"));
  bool should_rebuild = false;
  {
    WriterMutexLock lock(state_mu_);
    auto it = active_.row_of_id.find(id);
    if (it != active_.row_of_id.end()) {
      // The current version already lives in the active layer: replace
      // it in place (no older version to mask).
      std::memcpy(&active_.data[static_cast<std::size_t>(it->second) *
                                static_cast<std::size_t>(f)],
                  vector.data(), sizeof(Real) * static_cast<std::size_t>(f));
    } else if (IsLive(id)) {
      AppendRow(&active_, id, vector.data(), f);
      active_.dead.insert(id);  // mask the sealed/base version
    } else {
      return Status::NotFound("no live item with id " + std::to_string(id));
    }
    ++active_.mutations;
    should_rebuild = RebuildDue();
  }
  updates_.fetch_add(1, std::memory_order_relaxed);
  MaybeStartRebuild(should_rebuild);
  return Status::OK();
}

Status LiveCatalog::Remove(Index id) {
  bool should_rebuild = false;
  {
    WriterMutexLock lock(state_mu_);
    auto it = active_.row_of_id.find(id);
    if (it != active_.row_of_id.end()) {
      // Tombstone the buffered row in place; the dead-set entry also
      // keeps any sealed/base predecessor masked (the active row may
      // itself have been an update).
      active_.ids[static_cast<std::size_t>(it->second)] = -1;
      active_.row_of_id.erase(it);
      active_.dead.insert(id);
    } else if (IsLive(id)) {
      active_.dead.insert(id);
    } else {
      return Status::NotFound("no live item with id " + std::to_string(id));
    }
    ++active_.mutations;
    --live_items_;
    should_rebuild = RebuildDue();
  }
  removes_.fetch_add(1, std::memory_order_relaxed);
  MaybeStartRebuild(should_rebuild);
  return Status::OK();
}

std::vector<TopKEntry> LiveCatalog::ScanBuffer(
    const WriteBuffer& buffer, const std::unordered_set<Index>* mask,
    const Real* vectors, Index num_rows, Index f, Index k) {
  std::vector<TopKEntry> rows = SentinelRows(num_rows, k);
  const Index n = buffer.num_rows();
  if (n == 0) return rows;
  // Scores come from the serial blocked GEMM: its per-element K-panel
  // fma fold depends only on the two vectors, so a buffered item's score
  // here is bit-for-bit the score any solver would report for it after a
  // rebuild folds it into the base (and no pool is involved, so the scan
  // is safe under the caller's shared lock).
  Matrix scores(num_rows, n);
  GemmNT(vectors, num_rows, buffer.data.data(), n, f, /*alpha=*/1,
         /*beta=*/0, scores.data(), scores.cols());
  TopKHeap heap(k);
  for (Index q = 0; q < num_rows; ++q) {
    const Real* score_row = scores.Row(q);
    for (Index r = 0; r < n; ++r) {
      const Index id = buffer.ids[static_cast<std::size_t>(r)];
      if (id < 0) continue;  // tombstoned in place
      if (mask != nullptr && mask->find(id) != mask->end()) continue;
      if (!heap.WouldAccept(score_row[r])) continue;
      heap.Push(id, score_row[r]);
    }
    heap.ExtractDescending(&rows[static_cast<std::size_t>(q) *
                                 static_cast<std::size_t>(k)]);
  }
  return rows;
}

Status LiveCatalog::Query(Index k, std::span<const Index> user_ids,
                          const Real* vectors, Index num_rows,
                          TopKResult* out) {
  const Index f = num_factors();
  std::shared_ptr<Epoch> epoch;
  std::shared_ptr<const WriteBuffer> sealed;
  std::vector<TopKEntry> active_rows;
  std::unordered_set<Index> active_dead;
  {
    // The only lock a query takes: pin the epoch and scan the mutable
    // active layer while mutators are held off.  Everything after —
    // sealed scan, base query, merge — runs on immutable state.
    ReaderMutexLock lock(state_mu_);
    epoch = epoch_;
    sealed = sealed_;
    active_rows = ScanBuffer(active_, /*mask=*/nullptr, vectors, num_rows,
                             f, k);
    active_dead = active_.dead;
  }

  // The sealed layer is immutable; only its masking set (the active
  // layer's dead ids, frozen above) needed the lock.
  std::vector<TopKEntry> sealed_rows =
      sealed != nullptr
          ? ScanBuffer(*sealed, &active_dead, vectors, num_rows, f, k)
          : SentinelRows(num_rows, k);

  // Base rows are masked by every newer layer.  Over-query by the dead
  // count: at most |dead_union| base rows can be filtered out, so the
  // top-(k + D) base row still contains the top-k live base entries.
  std::unordered_set<Index> dead_union = std::move(active_dead);
  if (sealed != nullptr) {
    dead_union.insert(sealed->dead.begin(), sealed->dead.end());
  }
  std::vector<TopKEntry> base_rows = SentinelRows(num_rows, k);
  if (epoch->backend != nullptr) {
    const Index k_base = k + static_cast<Index>(dead_union.size());
    TopKResult raw;
    MIPS_RETURN_IF_ERROR(
        !user_ids.empty()
            ? epoch->backend->TopK(k_base, user_ids, &raw)
            : ServeNewUsersOn(*epoch->backend, vectors, num_rows, k_base,
                              &raw));
    for (Index q = 0; q < num_rows; ++q) {
      const TopKEntry* in = raw.Row(q);
      TopKEntry* dst = &base_rows[static_cast<std::size_t>(q) *
                                  static_cast<std::size_t>(k)];
      Index taken = 0;
      for (Index e = 0; e < k_base && taken < k; ++e) {
        if (in[e].item < 0) break;  // sentinel tail
        // Local row -> catalog id.  The map is strictly increasing, so
        // BetterEntry's id tie-break survives the remap unchanged.
        const Index id = epoch->ids[static_cast<std::size_t>(in[e].item)];
        if (dead_union.find(id) != dead_union.end()) continue;
        dst[taken++] = {id, in[e].score};
      }
    }
  }

  *out = TopKResult(num_rows, k);
  for (Index q = 0; q < num_rows; ++q) {
    const std::size_t offset =
        static_cast<std::size_t>(q) * static_cast<std::size_t>(k);
    const TopKEntry* layer_rows[3] = {&base_rows[offset],
                                      &sealed_rows[offset],
                                      &active_rows[offset]};
    MergeTopKRows(layer_rows, k, k, out->Row(q));
  }
  return Status::OK();
}

Status LiveCatalog::TopK(Index k, std::span<const Index> user_ids,
                         TopKResult* out) {
  MIPS_RETURN_IF_ERROR(CheckKnownUsers(k, user_ids));
  const Index num_rows = static_cast<Index>(user_ids.size());
  if (num_rows == 0) {
    *out = TopKResult(0, k);
    return Status::OK();
  }
  // The side scans need the user vectors contiguously; the base engine
  // still serves the ids through its known-user path.
  const Index f = num_factors();
  Matrix gathered(num_rows, f);
  for (Index r = 0; r < num_rows; ++r) {
    std::memcpy(gathered.Row(r), users_.Row(user_ids[static_cast<std::size_t>(r)]),
                sizeof(Real) * static_cast<std::size_t>(f));
  }
  return Query(k, user_ids, gathered.data(), num_rows, out);
}

Status LiveCatalog::ServeNewUsers(const Real* user_vectors, Index num_rows,
                                  Index k, TopKResult* out) {
  return Query(k, {}, user_vectors, num_rows, out);
}

int64_t LiveCatalog::InvalidateDecisions() {
  std::shared_ptr<Epoch> epoch;
  {
    ReaderMutexLock lock(state_mu_);
    epoch = epoch_;
  }
  return epoch->backend != nullptr ? epoch->backend->InvalidateDecisions()
                                   : 0;
}

std::string LiveCatalog::StrategySummary() const {
  ReaderMutexLock lock(state_mu_);
  return epoch_->backend != nullptr ? epoch_->backend->StrategySummary()
                                    : std::string();
}

void LiveCatalog::MaybeStartRebuild(bool should_rebuild) {
  if (!should_rebuild) return;
  MutexLock lock(rebuild_mu_);
  if (rebuild_running_) return;
  (void)StartRebuildLocked();
}

bool LiveCatalog::StartRebuildLocked() {
  if (rebuild_running_) return true;
  // A finished thread parks joinable until the next start (or the dtor).
  if (rebuild_thread_.joinable()) rebuild_thread_.join();

  std::shared_ptr<Epoch> base;
  std::shared_ptr<const WriteBuffer> sealed;
  {
    WriterMutexLock lock(state_mu_);
    if (sealed_ == nullptr) {
      if (active_.ids.empty() && active_.dead.empty()) {
        return false;  // nothing to fold
      }
      // Seal: the active layer freezes (rebuild input), a fresh active
      // layer keeps absorbing mutations during the rebuild.  A sealed
      // layer left over from a FAILED rebuild is reused as-is instead.
      sealed_ = std::make_shared<const WriteBuffer>(std::move(active_));
      active_ = WriteBuffer{};
    }
    base = epoch_;
    sealed = sealed_;
  }
  rebuild_running_ = true;
  rebuilds_started_.fetch_add(1, std::memory_order_relaxed);
  // A dedicated thread, not the engine pool: the fold ends in
  // MipsEngine::Open, whose candidate builds WAIT on the pool — waiting
  // on a pool from inside one of its own tasks deadlocks.
  rebuild_thread_ =
      std::thread([this, base = std::move(base),
                   sealed = std::move(sealed)]() mutable {
        RebuildAndInstall(std::move(base), std::move(sealed));
      });
  return true;
}

void LiveCatalog::RebuildAndInstall(
    std::shared_ptr<Epoch> base, std::shared_ptr<const WriteBuffer> sealed) {
  auto built = BuildEpoch(*base, *sealed);
  base.reset();
  sealed.reset();
  const Status status = built.status();
  if (status.ok()) InstallEpoch(std::move(*built));
  MutexLock lock(rebuild_mu_);
  last_rebuild_error_ = status;
  rebuild_running_ = false;
  rebuild_done_.NotifyAll();
}

StatusOr<std::shared_ptr<LiveCatalog::Epoch>> LiveCatalog::BuildEpoch(
    const Epoch& base, const WriteBuffer& sealed) {
  const Index f = num_factors();

  // Sealed survivors, ascending id (append order is NOT id order once
  // updates interleave with inserts).
  std::vector<std::pair<Index, Index>> sealed_live;  // (id, buffer row)
  for (Index r = 0; r < sealed.num_rows(); ++r) {
    const Index id = sealed.ids[static_cast<std::size_t>(r)];
    if (id >= 0) sealed_live.emplace_back(id, r);
  }
  std::sort(sealed_live.begin(), sealed_live.end());

  Index base_live = 0;
  for (const Index id : base.ids) {
    if (sealed.dead.find(id) == sealed.dead.end()) ++base_live;
  }

  auto next = std::make_shared<Epoch>();
  const Index n = base_live + static_cast<Index>(sealed_live.size());
  next->owned.Resize(n, f);
  next->ids.reserve(static_cast<std::size_t>(n));
  // Two-pointer merge by id.  Surviving base ids and sealed ids are
  // disjoint (an update always dead-marks its predecessor), so the
  // merged id sequence is strictly increasing — the invariant the
  // tie-order remap depends on.
  std::size_t bi = 0;
  std::size_t si = 0;
  Index row = 0;
  const std::size_t row_bytes = sizeof(Real) * static_cast<std::size_t>(f);
  while (bi < base.ids.size() || si < sealed_live.size()) {
    if (bi < base.ids.size() &&
        sealed.dead.find(base.ids[bi]) != sealed.dead.end()) {
      ++bi;  // superseded or removed
      continue;
    }
    const bool take_base =
        bi < base.ids.size() &&
        (si >= sealed_live.size() || base.ids[bi] < sealed_live[si].first);
    if (take_base) {
      next->ids.push_back(base.ids[bi]);
      std::memcpy(next->owned.Row(row), base.items.Row(static_cast<Index>(bi)),
                  row_bytes);
      ++bi;
    } else {
      next->ids.push_back(sealed_live[si].first);
      std::memcpy(next->owned.Row(row),
                  &sealed.data[static_cast<std::size_t>(sealed_live[si].second) *
                               static_cast<std::size_t>(f)],
                  row_bytes);
      ++si;
    }
    ++row;
  }

  next->items = ConstRowBlock(next->owned);
  if (n > 0) {
    MIPS_RETURN_IF_ERROR(OpenEpochEngine(next.get()));
  }
  next->drain_counter = epochs_drained_;
  return next;
}

void LiveCatalog::InstallEpoch(std::shared_ptr<Epoch> next) {
  std::shared_ptr<Epoch> old;
  {
    WriterMutexLock lock(state_mu_);
    old = std::move(epoch_);
    epoch_ = std::move(next);
    sealed_.reset();
  }
  catalog_epoch_.fetch_add(1, std::memory_order_relaxed);
  swaps_.fetch_add(1, std::memory_order_relaxed);
  if (old != nullptr) {
    // Generation-bump the retiring engine's decision cache (kernel
    // install epoch idiom): any query still draining on the old epoch
    // re-decides rather than serving a winner measured on dead
    // statistics.
    if (old->backend != nullptr) {
      decisions_retired_.fetch_add(old->backend->InvalidateDecisions(),
                                   std::memory_order_relaxed);
    }
  }
  // `old` drops here; whichever thread holds the last in-flight
  // reference destroys the retired epoch and bumps epochs_drained_.
}

Status LiveCatalog::Rebuild() {
  MutexLock lock(rebuild_mu_);
  // A rebuild in flight sealed its buffer before this call and misses
  // the mutations made since; a failed one leaves its sealed layer for
  // the next start to retry.
  while (rebuild_running_) rebuild_done_.Wait(lock);
  if (!StartRebuildLocked()) return Status::OK();  // nothing buffered
  while (rebuild_running_) rebuild_done_.Wait(lock);
  return last_rebuild_error_;
}

Status LiveCatalog::SaveSegment(const std::string& path) const {
  const Index f = num_factors();
  Matrix snapshot;
  {
    ReaderMutexLock lock(state_mu_);
    std::vector<std::pair<Index, const Real*>> rows;
    const std::size_t base_rows = epoch_->ids.size();
    for (std::size_t r = 0; r < base_rows; ++r) {
      const Index id = epoch_->ids[r];
      if (active_.dead.find(id) != active_.dead.end()) continue;
      if (sealed_ != nullptr &&
          sealed_->dead.find(id) != sealed_->dead.end()) {
        continue;
      }
      rows.emplace_back(id, epoch_->items.Row(static_cast<Index>(r)));
    }
    if (sealed_ != nullptr) {
      for (Index r = 0; r < sealed_->num_rows(); ++r) {
        const Index id = sealed_->ids[static_cast<std::size_t>(r)];
        if (id < 0) continue;
        if (active_.dead.find(id) != active_.dead.end()) continue;
        rows.emplace_back(id, &sealed_->data[static_cast<std::size_t>(r) *
                                             static_cast<std::size_t>(f)]);
      }
    }
    for (Index r = 0; r < active_.num_rows(); ++r) {
      const Index id = active_.ids[static_cast<std::size_t>(r)];
      if (id < 0) continue;
      rows.emplace_back(id, &active_.data[static_cast<std::size_t>(r) *
                                          static_cast<std::size_t>(f)]);
    }
    std::sort(rows.begin(), rows.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    snapshot.Resize(static_cast<Index>(rows.size()), f);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      std::memcpy(snapshot.Row(static_cast<Index>(r)), rows[r].second,
                  sizeof(Real) * static_cast<std::size_t>(f));
    }
  }
  if (snapshot.rows() == 0) {
    return Status::InvalidArgument("cannot save an empty catalog");
  }
  return CatalogSegment::Write(ConstRowBlock(snapshot), path);
}

Index LiveCatalog::num_items() const {
  ReaderMutexLock lock(state_mu_);
  return live_items_;
}

LiveCatalog::Stats LiveCatalog::stats() const {
  Stats snapshot;
  snapshot.catalog_epoch = catalog_epoch_.load(std::memory_order_relaxed);
  snapshot.inserts = inserts_.load(std::memory_order_relaxed);
  snapshot.updates = updates_.load(std::memory_order_relaxed);
  snapshot.removes = removes_.load(std::memory_order_relaxed);
  snapshot.rebuilds_started =
      rebuilds_started_.load(std::memory_order_relaxed);
  snapshot.swaps = swaps_.load(std::memory_order_relaxed);
  snapshot.epochs_drained = epochs_drained_->load(std::memory_order_relaxed);
  snapshot.decisions_retired =
      decisions_retired_.load(std::memory_order_relaxed);
  {
    ReaderMutexLock lock(state_mu_);
    snapshot.live_items = live_items_;
    snapshot.base_items = epoch_->items.rows();
    snapshot.buffered_rows =
        active_.num_rows() +
        (sealed_ != nullptr ? sealed_->num_rows() : Index{0});
    std::unordered_set<Index> dead_union = active_.dead;
    if (sealed_ != nullptr) {
      dead_union.insert(sealed_->dead.begin(), sealed_->dead.end());
    }
    snapshot.dead_masked = static_cast<Index>(dead_union.size());
  }
  snapshot.base_strategy = StrategySummary();
  {
    MutexLock lock(rebuild_mu_);
    snapshot.rebuild_running = rebuild_running_;
  }
  return snapshot;
}

}  // namespace mips
