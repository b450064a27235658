#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <span>
#include <thread>
#include <utility>

#include "catalog/live_catalog.h"
#include "core/engine.h"
#include "data/datasets.h"
#include "gate.h"
#include "layers.h"
#include "open_loop.h"
#include "serve/batching_engine.h"
#include "shard/partition.h"
#include "stats.h"
#include "trace.h"

namespace mipsbench {

using mips::BatchingEngine;
using mips::ConstRowBlock;
using mips::EngineOptions;
using mips::LiveCatalog;
using mips::Matrix;
using mips::MFModel;
using mips::MipsEngine;
using mips::Status;
using mips::TopKResult;

const std::vector<WorkloadSpec>& AllWorkloads() {
  static const std::vector<WorkloadSpec> workloads = [] {
    std::vector<WorkloadSpec> w(2);

    w[0].name = "batch-bmm";
    w[0].why =
        "Netflix-like flat norms at 38k x 1.4k: OPTIMUS picks BMM, so GEMM "
        "and top-k selection do the query work; an index change should not "
        "move it";
    w[0].preset = "netflix-nomad-50";
    w[0].scale = 4;
    w[0].nominal_rate = 500;

    w[1].name = "batch-index";
    w[1].why =
        "R2-like skewed norms at 109k x 8.2k: OPTIMUS picks MAXIMUS, so "
        "clustering, index construction and traversal dominate; a GEMM-only "
        "change should not move it";
    w[1].preset = "r2-nomad-25";
    w[1].scale = 4;
    w[1].nominal_rate = 500;

    return w;
  }();
  return workloads;
}

WorkloadSpec TinyVersion(const WorkloadSpec& spec) {
  WorkloadSpec tiny = spec;
  tiny.scale = std::min(spec.scale, 0.25);
  tiny.nominal_rate = std::min(spec.nominal_rate, 200.0);
  return tiny;
}

namespace {

constexpr double kMs = 1e3;
/// Buffered writes that trigger a background LiveCatalog rebuild.
constexpr int64_t kRebuildThreshold = 16;
/// BatchingEngine configuration shared by every serving phase.  At the
/// nominal rates the wait closes batches of a few rows; at capacity they
/// grow to about 170 rows.  With batches capped at 64 rows a batch's pool
/// hand-offs, not its GEMM, set the capacity, and that followed how fast
/// the host woke threads: in a busy spell of the host, batch-bmm's
/// capacity read 28k to 50k req/s over ten runs at 64 rows, and 64k to
/// 68k over four runs at 256 rows alternated with four at 64 rows that
/// read 49k to 57k.
constexpr Index kMaxBatchRows = 256;
constexpr double kMaxWaitMs = 2.0;
/// About 0.1 s of traffic at capacity, so a stall of the host is
/// absorbed rather than shed.
constexpr Index kMaxQueueRows = 8192;
constexpr int kExecutorThreads = 2;
/// The insert:update:remove mix of the live-catalog writer.
constexpr double kInsertShare = 0.60;
constexpr double kUpdateShare = 0.25;
/// Rows checked against brute force per gated answer set.
constexpr Index kGateRows = 256;
/// Opens per untraced run; setup_s is their median.
constexpr int kSetupReps = 9;
/// Share of --seconds spent on TopKAll passes; the rest serves.
constexpr double kBatchShare = 0.5;
/// Share of the serving time spent on the nominal rung.
constexpr double kNominalShare = 0.35;
/// The capacity phase: a closed loop holding kCapacityDepth requests
/// outstanding, four full batches, so both executors find a batch
/// waiting even while the load generator is slow to resubmit, and a
/// request waits behind at most 1023 others (under 20 ms at capacity,
/// inside kP99LimitMs).  It runs in kRounds slices; its rate is the
/// median over the kCapacityWindowS windows of every slice after
/// kCapacityWarmupS of pipeline fill.  A threshold search over offered
/// rates read the same capacity in whole rate steps and ended early on a
/// stall of the host; the closed loop reads it continuously and a stall
/// costs a few windows.
constexpr std::size_t kCapacityDepth = 4 * kMaxBatchRows;
constexpr double kCapacityWarmupS = 0.1;
/// Batches of ~250 rows complete in bursts, so a window's count moves in
/// steps of a batch: 0.1 s windows read batch-index's capacity in 6%
/// steps, 0.5 s windows in about 1%.
constexpr double kCapacityWindowS = 0.5;
/// Rounds of (TopKAll passes, capacity slice, nominal slice) per
/// untraced run.
constexpr int kRounds = 6;
/// Every kCapacityGateStride-th capacity request keeps its answer for the
/// gate.
constexpr std::size_t kCapacityGateStride = 64;
/// A serving phase meets the limit when its p99 and its backlog's drain
/// stay within this many milliseconds and no request fails.
constexpr double kP99LimitMs = 50;

/// The live-catalog configuration of the traced run's catalog rung:
/// LiveCatalog over kProbeItems items in 4 growth shards, open-loop
/// queries at 200/s beside 5 writes/s.  At 10 writes/s the re-decision
/// storm stalled more than half of the requests in some runs; at 5/s it
/// still shows, in catalog.query_p99_ms and the other catalog.* metrics.
const WorkloadSpec& LiveSpec() {
  static const WorkloadSpec spec = [] {
    WorkloadSpec w;
    w.name = "live-catalog";
    w.catalog_shards = 4;
    w.engine_threads = 0;
    w.nominal_rate = 200;
    w.mutation_rate = 5;
    return w;
  }();
  return spec;
}

[[noreturn]] void Die(const std::string& what, const Status& status) {
  std::fprintf(stderr, "mipsbench: %s failed: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(2);
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The preset's own calibrated instance.  The run seed drives the traffic
/// (arrival schedules, requested users, the write stream) and the gate's
/// samples, not the catalog: a different generator seed reshapes the
/// cluster structure MAXIMUS builds on, which moves its memory by up to
/// half and its speed by a tenth, and the spread between runs would then
/// measure the generator rather than the system.
MFModel MakeWorkloadModel(const WorkloadSpec& spec) {
  auto preset = mips::FindModelPreset(spec.preset);
  if (!preset.ok()) Die("preset " + spec.preset, preset.status());
  auto model = mips::MakeModel(*preset, spec.scale);
  if (!model.ok()) Die("model generation", model.status());
  return std::move(model).value();
}

EngineOptions MakeEngineOptions(const WorkloadSpec& spec) {
  EngineOptions options;
  options.k = kTopK;
  options.solvers = kCandidates;
  options.threads = spec.engine_threads;
  return options;
}

/// The serving backend of a workload: a MipsEngine, or a LiveCatalog.
struct Backend {
  std::unique_ptr<MipsEngine> engine;
  std::unique_ptr<LiveCatalog> catalog;

  Status TopKAll(Index k, TopKResult* out) const {
    if (catalog) {
      ScopedSpan span("catalog", "LiveCatalog::TopKAll");
      return catalog->TopKAll(k, out);
    }
    ScopedSpan span("engine", "MipsEngine::TopKAll");
    return engine->TopKAll(k, out);
  }
  Status TopKNewUsers(const Real* vectors, Index rows, Index k,
                      TopKResult* out) const {
    if (catalog) {
      ScopedSpan span("catalog", "LiveCatalog::TopKNewUsers");
      return catalog->TopKNewUsers(vectors, rows, k, out);
    }
    ScopedSpan span("engine", "MipsEngine::TopKNewUsers");
    return engine->TopKNewUsers(vectors, rows, k, out);
  }
  std::string strategy() const {
    return catalog ? catalog->stats().base_strategy : engine->strategy();
  }
};

mips::LiveCatalogOptions MakeCatalogOptions(const WorkloadSpec& spec) {
  mips::LiveCatalogOptions options;
  options.engine = MakeEngineOptions(spec);
  options.num_shards = std::max(1, spec.catalog_shards);
  options.sharding = mips::ShardingStrategy::kGrowth;
  options.threads = spec.engine_threads;
  options.rebuild_threshold = kRebuildThreshold;
  return options;
}

Backend OpenBackend(const WorkloadSpec& spec, const ConstRowBlock& users,
                    const ConstRowBlock& items) {
  Backend backend;
  if (spec.catalog_shards > 0) {
    ScopedSpan span("catalog", "LiveCatalog::Open");
    auto catalog = LiveCatalog::Open(users, items, MakeCatalogOptions(spec));
    if (!catalog.ok()) Die("LiveCatalog::Open", catalog.status());
    backend.catalog = std::move(catalog).value();
  } else {
    ScopedSpan span("engine", "MipsEngine::Open");
    auto engine = MipsEngine::Open(users, items, MakeEngineOptions(spec));
    if (!engine.ok()) Die("MipsEngine::Open", engine.status());
    backend.engine = std::move(engine).value();
  }
  return backend;
}

// ---- live-catalog writer -------------------------------------------------

enum class MutationKind { kInsert, kUpdate, kRemove };

/// The single writer of a live workload.  It owns the id universe: it
/// tracks every live id and its current vector, so Update/Remove always
/// target live ids and the gate can rebuild the catalog cold.
class Mutator {
 public:
  Mutator(LiveCatalog* catalog, const Matrix& items)
      : catalog_(catalog), source_(items) {
    for (Index id = 0; id < items.rows(); ++id) {
      live_.emplace(id, std::vector<Real>(items.Row(id),
                                          items.Row(id) + items.cols()));
      ids_.push_back(id);
    }
  }

  /// Runs `rate` mutations/s on a Poisson schedule until `stop` or
  /// `seconds`; returns one timing per mutation sent and the kind of each
  /// in *kinds.
  std::vector<RequestTiming> Run(double rate, double seconds, uint64_t seed,
                                 Clock::time_point start,
                                 const std::atomic<bool>* stop,
                                 std::vector<MutationKind>* kinds) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::uniform_real_distribution<Real> perturb(Real(0.9), Real(1.1));
    const Index f = source_.cols();
    const Index min_live = source_.rows() / 2;
    std::vector<Real> vector(static_cast<std::size_t>(f));
    return RunPaced(
        PoissonSchedule(rate, seconds, seed), start,
        [&](std::size_t) {
          const Real* row = source_.Row(static_cast<Index>(
              rng() % static_cast<uint64_t>(source_.rows())));
          for (Index d = 0; d < f; ++d) vector[d] = row[d] * perturb(rng);
          const double u = unit(rng);
          const bool can_remove = static_cast<Index>(ids_.size()) > min_live;
          const std::size_t pick = static_cast<std::size_t>(
              rng() % static_cast<uint64_t>(std::max<std::size_t>(1, ids_.size())));
          if (u < kInsertShare || ids_.empty()) {
            kinds->push_back(MutationKind::kInsert);
            ScopedSpan span("catalog", "LiveCatalog::Insert");
            auto id = catalog_->Insert(vector);
            if (!id.ok()) return id.status();
            live_.emplace(*id, vector);
            ids_.push_back(*id);
            return Status::OK();
          }
          const Index id = ids_[pick];
          if (u < kInsertShare + kUpdateShare || !can_remove) {
            kinds->push_back(MutationKind::kUpdate);
            ScopedSpan span("catalog", "LiveCatalog::Update");
            const Status status = catalog_->Update(id, vector);
            if (status.ok()) live_[id] = vector;
            return status;
          }
          kinds->push_back(MutationKind::kRemove);
          ScopedSpan span("catalog", "LiveCatalog::Remove");
          const Status status = catalog_->Remove(id);
          if (status.ok()) {
            live_.erase(id);
            ids_[pick] = ids_.back();
            ids_.pop_back();
          }
          return status;
        },
        stop);
  }

  /// The tracked live catalog as (ascending ids, row-major vectors).
  void Snapshot(std::vector<Index>* ids, Matrix* rows) const {
    ids->clear();
    rows->Resize(static_cast<Index>(live_.size()), source_.cols());
    Index r = 0;
    for (const auto& [id, vector] : live_) {
      ids->push_back(id);
      std::copy(vector.begin(), vector.end(), rows->Row(r++));
    }
  }

 private:
  LiveCatalog* catalog_;
  const Matrix& source_;
  std::map<Index, std::vector<Real>> live_;  // ordered: snapshot = id order
  std::vector<Index> ids_;
};

/// Rebuild activity seen by the monitor: [begin, end) intervals, in
/// seconds from rung start, during which a rebuild was running.
using Windows = std::vector<std::pair<double, double>>;

bool InWindow(const Windows& windows, double begin, double end) {
  for (const auto& [lo, hi] : windows) {
    if (begin < hi && lo < end) return true;
  }
  return false;
}

// ---- one serving rung ----------------------------------------------------

struct Rung {
  RateSummary summary;
  std::vector<RequestTiming> timings;
  /// Request i asked for user row users_of[i]; its answer is
  /// answers[i * k, (i + 1) * k).
  std::vector<Index> users_of;
  std::vector<TopKEntry> answers;
  BatchingEngine::Stats serve;
  // Live workloads only.
  std::vector<RequestTiming> mutations;
  std::vector<MutationKind> kinds;
  Windows windows;
  LiveCatalog::Stats catalog_before;
  LiveCatalog::Stats catalog_after;
};

/// The BatchingEngine every serving phase puts in front of `backend`.
std::unique_ptr<BatchingEngine> MakeServer(const Backend& backend, Index f) {
  mips::BatchingOptions batching;
  batching.max_batch_rows = kMaxBatchRows;
  batching.max_wait_ms = kMaxWaitMs;
  batching.max_queue_rows = kMaxQueueRows;
  batching.overload_policy = mips::OverloadPolicy::kShed;
  batching.executor_threads = kExecutorThreads;
  auto server = BatchingEngine::Create(
      [&backend](const Real* vectors, Index rows, Index kk, TopKResult* out) {
        return backend.TopKNewUsers(vectors, rows, kk, out);
      },
      f, batching);
  if (!server.ok()) Die("BatchingEngine::Create", server.status());
  return std::move(server).value();
}

Rung RunRung(const WorkloadSpec& spec, const Backend& backend,
             const Matrix& users, double rate, double seconds, uint64_t seed,
             uint64_t request_base, Mutator* mutator) {
  Rung rung;
  const Index k = kTopK;
  const Index f = users.cols();
  const std::vector<double> schedule = PoissonSchedule(rate, seconds, seed);
  std::mt19937_64 rng(seed ^ 0x5eedULL);
  rung.users_of.resize(schedule.size());
  for (Index& u : rung.users_of) {
    u = static_cast<Index>(rng() % static_cast<uint64_t>(users.rows()));
  }
  rung.answers.resize(schedule.size() * static_cast<std::size_t>(k));
  const std::unique_ptr<BatchingEngine> server = MakeServer(backend, f);

  std::atomic<bool> stop{false};
  std::thread writer;
  std::thread monitor;
  const Clock::time_point start = Clock::now();
  if (mutator != nullptr) {
    rung.catalog_before = backend.catalog->stats();
    writer = std::thread([&] {
      rung.mutations = mutator->Run(spec.mutation_rate, seconds, seed + 1,
                                    start, &stop, &rung.kinds);
    });
    monitor = std::thread([&] {
      bool running = false;
      double since = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const bool now_running = backend.catalog->stats().rebuild_running;
        const double t = SecondsSince(start);
        if (now_running && !running) since = t;
        if (!now_running && running) rung.windows.emplace_back(since, t);
        running = now_running;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (running) rung.windows.emplace_back(since, SecondsSince(start));
    });
  }

  rung.timings = RunOpenLoop(
      schedule, start,
      [&](std::size_t i) {
        return server->SubmitNewUser(users.Row(rung.users_of[i]), k,
                                        rung.answers.data() + i * k);
      },
      request_base);
  rung.serve = server->stats();
  stop.store(true);
  if (writer.joinable()) writer.join();
  if (monitor.joinable()) monitor.join();
  if (mutator != nullptr) rung.catalog_after = backend.catalog->stats();
  rung.summary = SummarizeRate(rate, seconds, rung.timings);
  return rung;
}

// ---- capacity phase ------------------------------------------------------

/// The capacity slices of one run, accumulated.
struct Capacity {
  /// Completion rates of every slice's windows; their median is
  /// max_ok_qps.
  std::vector<double> window_rates;
  std::vector<RequestTiming> timings;
  int64_t served = 0;
  int64_t batches = 0;
  double backend_seconds = 0;
  /// Sampled requests: request j asked for user row users_of[j]; its
  /// answer is answers[j * k, (j + 1) * k).
  std::vector<Index> users_of;
  std::vector<TopKEntry> answers;
};

/// One closed-loop slice of `seconds` on a fresh BatchingEngine, added to
/// *capacity.
void RunCapacitySlice(const Backend& backend, const Matrix& users,
                      double seconds, uint64_t seed, Capacity* capacity) {
  const Index k = kTopK;
  const std::size_t row = static_cast<std::size_t>(k);
  std::mt19937_64 rng(seed);
  std::vector<Index> user_in(kCapacityDepth);
  std::vector<TopKEntry> slots(kCapacityDepth * row);
  const std::unique_ptr<BatchingEngine> server = MakeServer(backend, users.cols());
  const std::vector<RequestTiming> timings = RunClosedLoop(
      kCapacityDepth, seconds, Clock::now(),
      [&](std::size_t, std::size_t slot) {
        user_in[slot] = static_cast<Index>(rng() % static_cast<uint64_t>(users.rows()));
        return server->SubmitNewUser(users.Row(user_in[slot]), k,
                                     slots.data() + slot * row);
      },
      [&](std::size_t i, std::size_t slot, bool ok) {
        if (!ok || i % kCapacityGateStride != 0) return;
        capacity->users_of.push_back(user_in[slot]);
        capacity->answers.insert(capacity->answers.end(),
                                 slots.begin() + slot * row,
                                 slots.begin() + (slot + 1) * row);
      });
  const BatchingEngine::Stats stats = server->stats();
  capacity->served += stats.served;
  capacity->batches += stats.batches_dispatched;
  capacity->backend_seconds += stats.backend_seconds;
  const std::vector<double> rates =
      WindowRates(timings, kCapacityWarmupS, seconds, kCapacityWindowS);
  capacity->window_rates.insert(capacity->window_rates.end(), rates.begin(),
                                rates.end());
  capacity->timings.insert(capacity->timings.end(), timings.begin(),
                           timings.end());
}

// ---- correctness gate ----------------------------------------------------

/// Checks up to kGateRows rows of `answers` (row r answers `vectors[r]`)
/// against brute force over `items` (ids remapped through `ids` if given).
template <typename VectorOf>
GateTally GateRows(Index rows, const VectorOf& vector_of,
                   const TopKEntry* answers, Index k,
                   const ConstRowBlock& items, const Index* ids,
                   bool allow_ulp, uint64_t seed) {
  GateTally tally;
  if (rows <= 0) return tally;
  std::map<Index, Index> row_of_id;
  if (ids != nullptr) {
    for (Index r = 0; r < items.rows(); ++r) row_of_id[ids[r]] = r;
  }
  std::mt19937_64 rng(seed);
  const Index checks = std::min(rows, kGateRows);
  for (Index c = 0; c < checks; ++c) {
    const Index r = checks == rows
                        ? c
                        : static_cast<Index>(rng() % static_cast<uint64_t>(rows));
    const Real* user = vector_of(r);
    const std::vector<TopKEntry> want = BruteForceTopK(user, items, ids, k);
    const auto score_of = [&](Index id) -> Real {
      Index row = id;
      if (ids != nullptr) {
        auto it = row_of_id.find(id);
        if (it == row_of_id.end()) return std::nan("");
        row = it->second;
      }
      if (row < 0 || row >= items.rows()) return std::nan("");
      return CanonicalScore(user, items.Row(row), items.cols());
    };
    tally.Add(CompareRow(answers + static_cast<std::size_t>(r) * k, want,
                         allow_ulp, score_of));
  }
  return tally;
}

/// Gate for the answers of one serving rung (static catalogs only).
GateTally GateRung(const Rung& rung, const Matrix& users,
                   const ConstRowBlock& items, Index k, bool allow_ulp,
                   uint64_t seed) {
  std::vector<Index> answered;
  for (std::size_t i = 0; i < rung.timings.size(); ++i) {
    if (rung.timings[i].ok) answered.push_back(static_cast<Index>(i));
  }
  std::vector<TopKEntry> rows;
  for (const Index i : answered) {
    rows.insert(rows.end(), rung.answers.begin() + i * k,
                rung.answers.begin() + (i + 1) * k);
  }
  return GateRows(
      static_cast<Index>(answered.size()),
      [&](Index r) { return users.Row(rung.users_of[answered[r]]); },
      rows.data(), k, items, nullptr, allow_ulp, seed);
}

/// The live-catalog rung's gate: with the writer stopped, the catalog
/// must answer like brute force over the writer's tracked items both
/// before and after Rebuild(), and like a cold MipsEngine::Open over them.
GateTally GateLiveCatalog(const WorkloadSpec& spec, LiveCatalog* catalog,
                          const Mutator& mutator, const Matrix& users,
                          uint64_t seed) {
  const Index k = kTopK;
  std::vector<Index> ids;
  Matrix tracked;
  mutator.Snapshot(&ids, &tracked);
  const ConstRowBlock items(tracked);
  const Index rows = std::min<Index>(kGateRows, users.rows());
  const auto vector_of = [&](Index r) { return users.Row(r); };
  GateTally tally;

  TopKResult before;
  {
    ScopedSpan span("catalog", "LiveCatalog::TopKNewUsers");
    const Status s = catalog->TopKNewUsers(users.data(), rows, k, &before);
    if (!s.ok()) Die("LiveCatalog::TopKNewUsers", s);
  }
  tally.Merge(GateRows(rows, vector_of, before.Row(0), k, items, ids.data(),
                       /*allow_ulp=*/true, seed));
  {
    ScopedSpan span("catalog", "LiveCatalog::Rebuild");
    const Status s = catalog->Rebuild();
    if (!s.ok()) Die("LiveCatalog::Rebuild", s);
  }
  TopKResult after;
  {
    ScopedSpan span("catalog", "LiveCatalog::TopKNewUsers");
    const Status s = catalog->TopKNewUsers(users.data(), rows, k, &after);
    if (!s.ok()) Die("LiveCatalog::TopKNewUsers", s);
  }
  tally.Merge(GateRows(rows, vector_of, after.Row(0), k, items, ids.data(),
                       /*allow_ulp=*/true, seed + 1));

  EngineOptions cold_options = MakeEngineOptions(spec);
  std::unique_ptr<MipsEngine> cold;
  {
    ScopedSpan span("engine", "MipsEngine::Open");
    auto opened = MipsEngine::Open(ConstRowBlock(users), items, cold_options);
    if (!opened.ok()) Die("cold MipsEngine::Open", opened.status());
    cold = std::move(opened).value();
  }
  TopKResult reference;
  {
    ScopedSpan span("engine", "MipsEngine::TopKNewUsers");
    const Status s = cold->TopKNewUsers(users.data(), rows, k, &reference);
    if (!s.ok()) Die("cold MipsEngine::TopKNewUsers", s);
  }
  // Cold answers come back as local rows; remap to catalog ids.
  for (Index r = 0; r < rows; ++r) {
    TopKEntry* row = reference.Row(r);
    for (Index j = 0; j < k; ++j) {
      if (row[j].item >= 0) row[j].item = ids[static_cast<std::size_t>(row[j].item)];
    }
  }
  for (Index r = 0; r < rows; ++r) {
    const std::vector<TopKEntry> want(reference.Row(r), reference.Row(r) + k);
    const Real* user = users.Row(r);
    const auto score_of = [&](Index id) -> Real {
      auto it = std::lower_bound(ids.begin(), ids.end(), id);
      if (it == ids.end() || *it != id) return std::nan("");
      return CanonicalScore(user, items.Row(static_cast<Index>(it - ids.begin())),
                            items.cols());
    };
    tally.Add(CompareRow(after.Row(r), want, /*allow_ulp=*/true, score_of));
  }
  return tally;
}

// ---- metric assembly -----------------------------------------------------

double MedianServiceUs(const std::vector<RequestTiming>& timings,
                       const std::vector<MutationKind>& kinds,
                       MutationKind kind) {
  std::vector<double> service;
  for (std::size_t i = 0; i < timings.size() && i < kinds.size(); ++i) {
    if (kinds[i] == kind && timings[i].ok) {
      service.push_back((timings[i].done - timings[i].sent) * 1e6);
    }
  }
  return Median(service);
}

double MutateP99Ms(const Rung& rung) {
  std::vector<double> latency;
  for (const RequestTiming& t : rung.mutations) {
    latency.push_back(t.ok ? LatencySeconds(t) * kMs
                           : std::numeric_limits<double>::infinity());
  }
  return Percentile(latency, 0.99);
}

/// Per-layer catalog metrics of one live rung (see layers.h for names).
void AddCatalogMetrics(const Rung& rung, std::vector<Metric>* out) {
  std::vector<double> window;
  std::vector<double> steady;
  for (const RequestTiming& t : rung.timings) {
    if (!t.ok) continue;
    (InWindow(rung.windows, t.intended, t.done) ? window : steady)
        .push_back(LatencySeconds(t) * kMs);
  }
  const auto& a = rung.catalog_after;
  const auto& b = rung.catalog_before;
  const double total = static_cast<double>(window.size() + steady.size());
  out->push_back({"catalog.insert_us",
                  MedianServiceUs(rung.mutations, rung.kinds,
                                  MutationKind::kInsert), "us"});
  out->push_back({"catalog.update_us",
                  MedianServiceUs(rung.mutations, rung.kinds,
                                  MutationKind::kUpdate), "us"});
  out->push_back({"catalog.remove_us",
                  MedianServiceUs(rung.mutations, rung.kinds,
                                  MutationKind::kRemove), "us"});
  out->push_back({"catalog.mutate_p99_ms", MutateP99Ms(rung), "ms"});
  out->push_back({"catalog.query_p99_ms", rung.summary.p99_s * kMs, "ms"});
  out->push_back({"catalog.rebuilds",
                  static_cast<double>(a.rebuilds_started - b.rebuilds_started),
                  "count"});
  out->push_back({"catalog.swaps", static_cast<double>(a.swaps - b.swaps),
                  "count"});
  out->push_back({"catalog.decisions_retired",
                  static_cast<double>(a.decisions_retired - b.decisions_retired),
                  "count"});
  out->push_back({"catalog.window_share",
                  total > 0 ? static_cast<double>(window.size()) / total : 0,
                  "ratio"});
  out->push_back({"catalog.window_p50_ms", Percentile(window, 0.5), "ms"});
  out->push_back({"catalog.steady_p50_ms", Percentile(steady, 0.5), "ms"});
  out->push_back({"catalog.buffered_rows",
                  static_cast<double>(a.buffered_rows), "rows"});
  out->push_back({"catalog.dead_masked", static_cast<double>(a.dead_masked),
                  "count"});
}

void AddServeMetrics(const Rung& rung, std::vector<Metric>* out) {
  const auto& s = rung.serve;
  const double batches = static_cast<double>(std::max<int64_t>(1, s.batches_dispatched));
  const double served = static_cast<double>(std::max<int64_t>(1, s.served));
  out->push_back({"serve.queue_wait_ms", s.queue_wait_seconds / served * kMs,
                  "ms"});
  out->push_back({"serve.backend_ms_per_batch",
                  s.backend_seconds / batches * kMs, "ms"});
  out->push_back({"serve.rows_per_batch", static_cast<double>(s.served) / batches,
                  "rows"});
  out->push_back({"serve.timeout_flush_frac",
                  static_cast<double>(s.timeout_flushes) / batches, "ratio"});
  out->push_back({"serve.shed_frac",
                  static_cast<double>(s.shed) /
                      static_cast<double>(std::max<int64_t>(1, s.submitted)),
                  "ratio"});
}

/// Adds a rung's requests and writes to the run's tallies.
void CountRung(const Rung& rung, RunResult* result) {
  result->attempted +=
      rung.summary.attempted + static_cast<int64_t>(rung.mutations.size());
  result->failed += rung.summary.failed;
  for (const RequestTiming& t : rung.mutations) result->failed += t.ok ? 0 : 1;
}

/// The traced run's live-catalog rung over the first kProbeItems items of
/// `model`, then its gate.  Returns the rung; the gate's rows land in
/// *gate.
Rung RunLiveRung(const MFModel& model, double seconds, uint64_t seed,
                 uint64_t request_base, GateTally* gate) {
  const WorkloadSpec& live = LiveSpec();
  const Index n = std::min<Index>(kProbeItems, model.items.rows());
  Matrix items(n, model.items.cols());
  std::copy(model.items.Row(0),
            model.items.Row(0) + static_cast<std::size_t>(n) * model.items.cols(),
            items.Row(0));
  Backend backend = OpenBackend(live, ConstRowBlock(model.users),
                                ConstRowBlock(items));
  Mutator writer(backend.catalog.get(), items);
  Rung rung = RunRung(live, backend, model.users, live.nominal_rate, seconds,
                      seed, request_base, &writer);
  gate->Merge(GateLiveCatalog(live, backend.catalog.get(), writer, model.users,
                              seed + 1));
  return rung;
}

}  // namespace

RunResult RunWorkload(const WorkloadSpec& spec, const RunOptions& options) {
  RunResult result;
  const uint64_t seed = options.seed;
  const double seconds = options.seconds;
  const bool traced = options.trace;
  // Installs the GEMM kernel (startup probe) before anything is timed.
  result.provenance = HostProvenance();

  const MFModel model = MakeWorkloadModel(spec);
  const ConstRowBlock users(model.users);
  const ConstRowBlock items(model.items);
  const Index k = kTopK;
  SetTracing(traced);

  // ---- setup -------------------------------------------------------------
  Backend backend;
  std::vector<double> setup_times;
  const int reps = traced ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    backend = Backend();  // release the previous engine before reopening
    const Clock::time_point t0 = Clock::now();
    backend = OpenBackend(spec, users, items);
    setup_times.push_back(SecondsSince(t0));
  }
  const double setup_s = Median(setup_times);
  const std::string chosen = backend.strategy();
  result.report.push_back({"rss.after_setup_mb", PeakRssMb(), "MB"});

  // ---- TopKAll passes and serving, interleaved ------------------------------
  // An untraced run makes kRounds rounds of (TopKAll passes, capacity
  // slice, nominal slice), so every median samples the whole stretch of
  // the run and a slow spell of the host touches a minority of its
  // samples.  The traced run makes its passes, then the nominal rung
  // twice, untraced then traced: the difference is the tracing overhead.
  const double batch_budget = seconds * kBatchShare * (traced ? 0.5 : 1);
  const double serve_budget = seconds * (1 - kBatchShare);
  const double nominal_seconds = serve_budget * kNominalShare;
  const double capacity_seconds = serve_budget - nominal_seconds;
  const int rounds = traced ? 1 : kRounds;
  std::vector<double> pass_times;
  TopKResult all;
  Capacity capacity;
  std::vector<Rung> rungs;
  uint64_t request_base = 0;
  auto run_rung = [&](double rung_seconds, uint64_t rung_seed) {
    rungs.push_back(RunRung(spec, backend, model.users, spec.nominal_rate,
                            rung_seconds, rung_seed, request_base, nullptr));
    request_base += rungs.back().timings.size();
    CountRung(rungs.back(), &result);
  };
  double peak_rss_mb = 0;
  // The first pass faults in the result buffer and the pool's working
  // sets; it is not timed.
  const Status warm = backend.TopKAll(k, &all);
  if (!warm.ok()) Die("TopKAll", warm);
  for (int round = 0; round < rounds; ++round) {
    const Clock::time_point phase = Clock::now();
    do {
      const Clock::time_point t0 = Clock::now();
      const Status s = backend.TopKAll(k, &all);
      if (!s.ok()) Die("TopKAll", s);
      pass_times.push_back(SecondsSince(t0));
    } while (SecondsSince(phase) < batch_budget / rounds);
    // Everything work can move into memory (candidates, indexes, batch
    // buffers) is allocated by the end of the first passes.  Serving adds
    // thread arenas whose retained size follows thread timing, so the
    // gated figure stops here and the whole-run peak is reported beside
    // it.
    if (round == 0) peak_rss_mb = PeakRssMb();
    if (traced) break;
    RunCapacitySlice(backend, model.users, capacity_seconds / rounds,
                     seed * 1000 + 100 + round, &capacity);
    run_rung(nominal_seconds / rounds, seed * 1000 + 200 + round);
  }
  const double pass_s = Median(pass_times);
  result.attempted += static_cast<int64_t>(pass_times.size()) + 1;

  double trace_overhead = 0;
  double max_ok_qps = 0;
  RateSummary nominal_summary;  // query_p50_ms and query_p99_ms
  if (!traced) {
    max_ok_qps = Median(capacity.window_rates);
    const RateSummary summary =
        SummarizeRate(max_ok_qps, capacity_seconds, capacity.timings);
    result.attempted += summary.attempted;
    result.failed += summary.failed;
    const double batches =
        static_cast<double>(std::max<int64_t>(1, capacity.batches));
    std::vector<Metric>& r = result.report;
    r.push_back({"capacity.p50_ms", summary.p50_s * kMs, "ms"});
    r.push_back({"capacity.p99_ms", summary.p99_s * kMs, "ms"});
    r.push_back({"capacity.failed", static_cast<double>(summary.failed), "count"});
    r.push_back({"capacity.requests", static_cast<double>(summary.attempted), "count"});
    r.push_back({"capacity.windows",
                 static_cast<double>(capacity.window_rates.size()), "count"});
    r.push_back({"capacity.rows_per_batch",
                 static_cast<double>(capacity.served) / batches, "rows"});
    r.push_back({"capacity.backend_ms_per_batch",
                 capacity.backend_seconds / batches * kMs, "ms"});
    r.push_back({"capacity.meets_limit",
                 MeetsLimit(summary, kP99LimitMs / kMs) ? 1.0 : 0.0, "bool"});
    std::vector<RequestTiming> nominal_timings;
    for (const Rung& rung : rungs) {
      nominal_timings.insert(nominal_timings.end(), rung.timings.begin(),
                             rung.timings.end());
    }
    nominal_summary =
        SummarizeRate(spec.nominal_rate, nominal_seconds, nominal_timings);
  } else {
    SetTracing(false);
    run_rung(nominal_seconds / 2, seed * 1000 + 1);
    SetTracing(true);
    run_rung(nominal_seconds / 2, seed * 1000 + 1);
    const double untraced = rungs[0].summary.p50_s;
    trace_overhead = untraced > 0 ? rungs[1].summary.p50_s / untraced - 1 : 0;
    nominal_summary = rungs[1].summary;
  }
  const Rung& nominal = rungs.back();

  // ---- gate (outside every timed window) --------------------------------
  // BMM-served rows must be bit-exact; an index solver's rows are
  // admitted to the last ulp.
  const bool allow_ulp = chosen != "bmm";
  GateTally gate;
  gate.Merge(GateRows(
      all.num_queries(), [&](Index r) { return model.users.Row(r); },
      all.Row(0), k, items, nullptr, allow_ulp,
      seed + 11));
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    gate.Merge(GateRung(rungs[i], model.users, items, k,
                        allow_ulp, seed + 20 + i));
  }
  gate.Merge(GateRows(
      static_cast<Index>(capacity.users_of.size()),
      [&](Index r) { return model.users.Row(capacity.users_of[r]); },
      capacity.answers.data(), k, items, nullptr, allow_ulp,
      seed + 12));

  result.provenance.push_back({"workload", spec.name});
  result.provenance.push_back({"why", JsonEscape(spec.why)});
  result.provenance.push_back({"seed", std::to_string(seed)});
  result.provenance.push_back({"seconds", std::to_string(seconds)});
  result.provenance.push_back({"preset", spec.preset});
  result.provenance.push_back({"scale", std::to_string(spec.scale)});
  result.provenance.push_back({"users", std::to_string(users.rows())});
  result.provenance.push_back({"items", std::to_string(items.rows())});
  result.provenance.push_back({"factors", std::to_string(items.cols())});
  result.provenance.push_back({"k", std::to_string(k)});
  std::string candidates;
  for (const std::string& c : kCandidates) {
    candidates += (candidates.empty() ? "" : ",") + c;
  }
  result.provenance.push_back({"candidates", candidates});
  result.provenance.push_back({"engine_threads", std::to_string(spec.engine_threads)});
  result.provenance.push_back({"nominal_rate", std::to_string(spec.nominal_rate)});
  result.provenance.push_back({"capacity_depth", std::to_string(kCapacityDepth)});
  result.provenance.push_back({"p99_limit_ms", std::to_string(kP99LimitMs)});
  result.provenance.push_back({"optimus_choice", JsonEscape(chosen)});

  if (traced) {
    // ---- traced run: per-layer metrics -----------------------------------
    std::vector<Metric>& m = result.metrics;
    LayerContext layer;
    layer.model = &model;
    layer.engine_options = MakeEngineOptions(spec);
    layer.engine = backend.engine.get();
    layer.chosen = chosen;
    layer.rows_per_batch =
        static_cast<double>(nominal.serve.served) /
        static_cast<double>(std::max<int64_t>(1, nominal.serve.batches_dispatched));
    layer.seed = seed;
    RunLayerSuite(layer, &m);
    AddServeMetrics(nominal, &m);

    const Rung live = RunLiveRung(model, std::max(8.0, seconds * 0.4),
                                  seed * 1000 + 7, request_base, &gate);
    CountRung(live, &result);
    AddCatalogMetrics(live, &m);
    result.provenance.push_back(
        {"live_catalog", std::to_string(LiveSpec().catalog_shards) +
                             " growth shards, " +
                             std::to_string(LiveSpec().nominal_rate) + " q/s, " +
                             std::to_string(LiveSpec().mutation_rate) +
                             " writes/s"});

    m.push_back({"serve.query_p99_ms", nominal.summary.p99_s * kMs, "ms"});
    m.push_back({"bench.gen_late_p99_ms", nominal.summary.late_p99_s * kMs, "ms"});
    m.push_back({"bench.trace_overhead", trace_overhead, "ratio"});
    m.push_back({"gate.ulp_rows", static_cast<double>(gate.ulp), "count"});

    SetTracing(false);
    const std::vector<Span> spans = CollectSpans();
    std::map<std::string, double> self = SelfSeconds(spans);
    // The serving tier's own share of its traced requests: the time they
    // queued before batch assembly (the backend time is the engine's and
    // the catalog's, on the executor threads).
    self["serve"] = nominal.serve.queue_wait_seconds + live.serve.queue_wait_seconds;
    for (const char* name : kTracedLayers) {
      auto it = self.find(name);
      m.push_back({std::string("self_s.") + name, it == self.end() ? 0 : it->second,
                   "s"});
    }
    const std::string path = options.out_dir + "/trace-" + spec.name + "-seed" +
                             std::to_string(seed) + ".jsonl";
    if (!WriteSpans(path, spans)) {
      std::fprintf(stderr, "mipsbench: could not write %s\n", path.c_str());
    } else {
      result.provenance.push_back({"trace_file", JsonEscape(path)});
    }
  } else {
    result.metrics = {
        {"setup_s", setup_s, "s"},
        {"batch_total_s", setup_s + pass_s, "s"},
        {"batch_users_per_s",
         pass_s > 0 ? static_cast<double>(all.num_queries()) / pass_s : 0,
         "users/s"},
        {"query_p50_ms", nominal_summary.p50_s * kMs, "ms"},
        {"max_ok_qps", max_ok_qps, "req/s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  }

  // ---- tallies, once every gate has run ------------------------------------
  result.attempted += gate.rows;
  result.failed += gate.wrong;
  result.correct = gate.ok();
  const double failed_frac =
      static_cast<double>(result.failed) /
      static_cast<double>(std::max<int64_t>(1, result.attempted));
  result.report.push_back({"failed_frac", failed_frac, "ratio"});
  result.report.push_back({"gate.rows", static_cast<double>(gate.rows), "count"});
  result.report.push_back({"gate.exact_rows", static_cast<double>(gate.exact), "count"});
  result.report.push_back({"gate.ulp_rows", static_cast<double>(gate.ulp), "count"});
  result.report.push_back({"gate.wrong_rows", static_cast<double>(gate.wrong), "count"});
  result.report.push_back({"batch.passes", static_cast<double>(pass_times.size()), "count"});
  result.report.push_back({"rss.whole_run_peak_mb", PeakRssMb(), "MB"});
  // Printed and recorded but not gated: the 1% tail follows the host's
  // scheduling of wake-ups by more than any usable bound (see
  // mipsbench/README.md).
  result.report.push_back({"query_p99_ms", nominal_summary.p99_s * kMs, "ms"});
  return result;
}

}  // namespace mipsbench
