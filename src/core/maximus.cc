#include "core/maximus.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

#include "cluster/spherical.h"
#include "common/timer.h"
#include "core/cbound.h"
#include "linalg/blas.h"
#include "linalg/gemm.h"
#include "solvers/registry.h"
#include "topk/topk_heap.h"

namespace mips {

Status MaximusSolver::Prepare(const ConstRowBlock& users,
                              const ConstRowBlock& items) {
  if (users.cols() != items.cols()) {
    return Status::InvalidArgument("user/item factor dimensions differ");
  }
  if (users.rows() <= 0 || items.rows() <= 0) {
    return Status::InvalidArgument("user and item sets must be non-empty");
  }
  users_ = users;
  items_ = items;
  prepared_users_ = users.rows();

  // --- Stage 1: cluster users (Section III-A). ---
  {
    WallTimer timer;
    KMeansOptions kopts;
    kopts.num_clusters = options_.num_clusters;
    kopts.max_iterations = options_.kmeans_iterations;
    kopts.seed = options_.seed;
    const Status st =
        options_.spherical_clustering
            ? SphericalKMeans(users, kopts, &clustering_)
            : KMeans(users, kopts, &clustering_);
    MIPS_RETURN_IF_ERROR(st);
    stage_timer_.Add("clustering", timer.Seconds());
  }

  // --- Stage 2: construct the per-cluster sorted lists (Section III-B). ---
  WallTimer timer;
  const Index n = items.rows();
  const Index f = items.cols();
  const Index num_clusters = clustering_.centroids.rows();

  std::vector<Real> item_norms(static_cast<std::size_t>(n));
  RowNorms(items.data(), n, f, item_norms.data());
  max_item_norm_ = *std::max_element(item_norms.begin(), item_norms.end());

  // theta_b per cluster: the widest member angle (Algorithm 1).
  theta_b_.assign(static_cast<std::size_t>(num_clusters), 0);
  for (Index j = 0; j < num_clusters; ++j) {
    Real max_angle = 0;
    for (const Index u : clustering_.members[static_cast<std::size_t>(j)]) {
      const Real cos = CosineSimilarity(users.Row(u),
                                        clustering_.centroids.Row(j), f);
      max_angle = std::max(max_angle, AngleFromCosine(cos));
    }
    theta_b_[static_cast<std::size_t>(j)] = max_angle;
  }

  // One GEMM gives every item-centroid inner product.
  Matrix centroid_scores;
  GemmNT(items, ConstRowBlock(clustering_.centroids), &centroid_scores);
  std::vector<Real> centroid_norms(static_cast<std::size_t>(num_clusters));
  for (Index j = 0; j < num_clusters; ++j) {
    centroid_norms[static_cast<std::size_t>(j)] =
        Nrm2(clustering_.centroids.Row(j), f);
  }

  lists_.assign(static_cast<std::size_t>(num_clusters), {});
  for (Index j = 0; j < num_clusters; ++j) {
    ClusterList& list = lists_[static_cast<std::size_t>(j)];
    const Real theta_b = theta_b_[static_cast<std::size_t>(j)];
    const Real c_norm = centroid_norms[static_cast<std::size_t>(j)];

    std::vector<Real> bound(static_cast<std::size_t>(n));
    for (Index i = 0; i < n; ++i) {
      const Real norm = item_norms[static_cast<std::size_t>(i)];
      const Real denom = norm * c_norm;
      const Real cos_ic =
          denom > 0 ? centroid_scores(i, j) / denom : Real{0};
      const Real theta_ic = AngleFromCosine(cos_ic);
      bound[static_cast<std::size_t>(i)] = CBound(norm, theta_ic, theta_b);
    }

    list.item_ids.resize(static_cast<std::size_t>(n));
    std::iota(list.item_ids.begin(), list.item_ids.end(), 0);
    std::stable_sort(list.item_ids.begin(), list.item_ids.end(),
                     [&](Index a, Index b) {
                       return bound[static_cast<std::size_t>(a)] >
                              bound[static_cast<std::size_t>(b)];
                     });
    list.bounds.resize(static_cast<std::size_t>(n));
    for (Index pos = 0; pos < n; ++pos) {
      list.bounds[static_cast<std::size_t>(pos)] =
          bound[static_cast<std::size_t>(list.item_ids[static_cast<std::size_t>(pos)])];
    }

    // Shared item block for the first B list entries (Section III-D).
    Index block_size = options_.block_size;
    if (block_size < 0) {
      block_size = std::clamp<Index>(n / 8, 64, 4096);  // auto
    }
    const Index b_eff = std::min<Index>(block_size, n);
    if (b_eff > 0) {
      list.block.Resize(b_eff, f);
      for (Index pos = 0; pos < b_eff; ++pos) {
        std::memcpy(list.block.Row(pos),
                    items.Row(list.item_ids[static_cast<std::size_t>(pos)]),
                    static_cast<std::size_t>(f) * sizeof(Real));
      }
    }
  }
  stage_timer_.Add("construction", timer.Seconds());
  return Status::OK();
}

namespace {

// Below this many multiply-adds in its first list segment a new-user
// batch finishes in tens of microseconds, less than a pool hand-off
// costs, so it runs on the caller (the threshold FusedTopK uses).
constexpr int64_t kMinParallelMacs = int64_t{1} << 20;

// Query rows walked together.  A tile's segment scores (rows x B) stay
// in L2 across the prune pass, and the tile bounds what one chunk holds
// at a time (rows, heaps, scores) however many users it serves.
constexpr Index kWalkTileRows = 128;

}  // namespace

// One chunk's walk state, reused across the tiles it walks.
struct MaximusSolver::WalkScratch {
  std::vector<Real> rows;          // the tile's unit-norm query rows
  std::vector<Real> norms;         // their original norms
  std::vector<Real> slack;         // their bound widening
  std::vector<TopKHeap> heaps;
  std::vector<Real> active_users;  // rows still walking, compacted
  std::vector<Real> segment;       // items of a segment past the first
  std::vector<Real> scores;        // active rows x one segment
  std::vector<Index> active;
  std::vector<Index> still_active;
};

int64_t MaximusSolver::WalkList(const ClusterList& list, Index m,
                                WalkScratch* scratch) const {
  const Index n = items_.rows();
  const Index f = items_.cols();
  const Index block = list.block.rows();
  const Real* rows = scratch->rows.data();
  const Real* slack = scratch->slack.data();
  TopKHeap* heaps = scratch->heaps.data();
  int64_t visited = 0;

  if (block <= 0) {
    // Lesion path (item blocking disabled): scalar walk per row.
    for (Index r = 0; r < m; ++r) {
      const Real* nu = rows + static_cast<std::size_t>(r) * f;
      TopKHeap& heap = heaps[r];
      for (Index pos = 0; pos < n; ++pos) {
        // Strict prune (`<`, not `<=`): a bound equal to the heap
        // minimum can cover a tied score, and the tied item must
        // reach Push for the id tie-break (topk_heap.h).
        if (list.bounds[static_cast<std::size_t>(pos)] + slack[r] <
            heap.MinScore()) {
          break;
        }
        const Index id = list.item_ids[static_cast<std::size_t>(pos)];
        heap.Push(id, Dot(nu, items_.Row(id), f));
        ++visited;
      }
    }
    return visited;
  }

  // Progressive item blocking (Section III-D, extended): score the list
  // in B-item segments with one shared GEMM per segment over the rows
  // still active, so even deep walks stay on the blocked kernel instead
  // of degrading to scalar gather-dots.  The first segment's items were
  // gathered at construction time.
  std::vector<Index>& active = scratch->active;
  std::vector<Index>& still_active = scratch->still_active;
  active.resize(static_cast<std::size_t>(m));
  std::iota(active.begin(), active.end(), 0);
  const Real* active_rows = rows;  // first segment: every row

  for (Index pos0 = 0; pos0 < n && !active.empty(); pos0 += block) {
    const Index len = std::min<Index>(block, n - pos0);
    const Real* items_block = list.block.data();
    if (pos0 > 0) {
      scratch->segment.resize(static_cast<std::size_t>(len) * f);
      for (Index p = 0; p < len; ++p) {
        std::memcpy(
            scratch->segment.data() + static_cast<std::size_t>(p) * f,
            items_.Row(list.item_ids[static_cast<std::size_t>(pos0 + p)]),
            static_cast<std::size_t>(f) * sizeof(Real));
      }
      items_block = scratch->segment.data();
    }
    const Index num_active = static_cast<Index>(active.size());
    scratch->scores.resize(static_cast<std::size_t>(num_active) * len);
    GemmNT(active_rows, num_active, items_block, len, f, /*alpha=*/1,
           /*beta=*/0, scratch->scores.data(), len);

    still_active.clear();
    for (Index a = 0; a < num_active; ++a) {
      const Index r = active[static_cast<std::size_t>(a)];
      TopKHeap& heap = heaps[r];
      const Real* srow =
          scratch->scores.data() + static_cast<std::size_t>(a) * len;
      Index p = 0;
      for (; p < len; ++p) {
        if (list.bounds[static_cast<std::size_t>(pos0 + p)] + slack[r] <
            heap.MinScore()) {
          break;
        }
        heap.Push(list.item_ids[static_cast<std::size_t>(pos0 + p)],
                  srow[p]);
      }
      visited += p;
      if (p == len && pos0 + len < n) still_active.push_back(r);
    }

    if (still_active.size() != active.size()) {
      // Compact the active rows for the next segment's GEMM.
      scratch->active_users.resize(still_active.size() *
                                   static_cast<std::size_t>(f));
      for (std::size_t a = 0; a < still_active.size(); ++a) {
        std::memcpy(scratch->active_users.data() + a * f,
                    rows + static_cast<std::size_t>(still_active[a]) * f,
                    static_cast<std::size_t>(f) * sizeof(Real));
      }
      active_rows = scratch->active_users.data();
    }
    active.swap(still_active);
  }
  return visited;
}

template <typename Locate>
int64_t MaximusSolver::Walk(Index q, Index k, ThreadPool* pool,
                            const Locate& locate, TopKResult* out) const {
  const Index f = items_.cols();
  const Index num_clusters = static_cast<Index>(lists_.size());
  std::atomic<int64_t> total_visited{0};

  ParallelFor(pool, q, [&](int64_t begin, int64_t end, int /*chunk*/) {
    const Index m = static_cast<Index>(end - begin);
    // Order this chunk's rows by cluster (a stable counting sort), so
    // each cluster's rows sit together and share its segment GEMMs.
    std::vector<WalkRow> located(static_cast<std::size_t>(m));
    std::vector<Index> offsets(static_cast<std::size_t>(num_clusters) + 1, 0);
    for (Index r = 0; r < m; ++r) {
      located[static_cast<std::size_t>(r)] = locate(begin + r);
      ++offsets[static_cast<std::size_t>(
          located[static_cast<std::size_t>(r)].cluster + 1)];
    }
    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
    std::vector<Index> order(static_cast<std::size_t>(m));
    {
      std::vector<Index> next(offsets.begin(), offsets.end() - 1);
      for (Index r = 0; r < m; ++r) {
        const Index j = located[static_cast<std::size_t>(r)].cluster;
        order[static_cast<std::size_t>(next[static_cast<std::size_t>(j)]++)] = r;
      }
    }

    const Index tile = std::min(m, kWalkTileRows);
    WalkScratch scratch;
    scratch.rows.resize(static_cast<std::size_t>(tile) * f);
    scratch.norms.resize(static_cast<std::size_t>(tile));
    scratch.slack.resize(static_cast<std::size_t>(tile));
    scratch.heaps.assign(static_cast<std::size_t>(tile), TopKHeap(k));
    int64_t visited = 0;
    for (Index j = 0; j < num_clusters; ++j) {
      const Index group_end = offsets[static_cast<std::size_t>(j) + 1];
      for (Index g0 = offsets[static_cast<std::size_t>(j)]; g0 < group_end;
           g0 += tile) {
        const Index t = std::min(tile, group_end - g0);
        // Normalize the tile: scores are taken on the unit vector so they
        // compare with the scale-free bounds.  A zero row scores 0 on
        // every item, which no angle bound describes, so it walks the
        // whole list (infinite slack).
        for (Index i = 0; i < t; ++i) {
          const WalkRow& row = located[static_cast<std::size_t>(
              order[static_cast<std::size_t>(g0 + i)])];
          Real* nu = scratch.rows.data() + static_cast<std::size_t>(i) * f;
          std::memcpy(nu, row.vector,
                      static_cast<std::size_t>(f) * sizeof(Real));
          const Real norm = Nrm2(nu, f);
          if (norm > 0) Scale(Real{1} / norm, nu, f);
          scratch.norms[static_cast<std::size_t>(i)] = norm;
          scratch.slack[static_cast<std::size_t>(i)] =
              norm > 0 ? row.slack : std::numeric_limits<Real>::infinity();
        }
        visited += WalkList(lists_[static_cast<std::size_t>(j)], t, &scratch);
        for (Index i = 0; i < t; ++i) {
          TopKEntry* entries = out->Row(
              static_cast<Index>(begin) + order[static_cast<std::size_t>(g0 + i)]);
          scratch.heaps[static_cast<std::size_t>(i)].ExtractDescending(entries);
          // Rescale normalized scores to true inner products.
          const Real norm = scratch.norms[static_cast<std::size_t>(i)];
          for (Index e = 0; e < k; ++e) {
            if (entries[e].item >= 0) entries[e].score *= norm;
          }
        }
      }
    }
    total_visited.fetch_add(visited, std::memory_order_relaxed);
  });
  return total_visited.load(std::memory_order_relaxed);
}

Status MaximusSolver::TopKForUsers(Index k, std::span<const Index> user_ids,
                                   TopKResult* out) {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (lists_.empty()) {
    return Status::FailedPrecondition("Prepare was not called");
  }
  WallTimer traversal_timer;
  const Index q = static_cast<Index>(user_ids.size());
  *out = TopKResult(q, k);
  if (q == 0) return Status::OK();

  // Members lie inside their cluster's theta_b cone: no slack.
  const int64_t visited = Walk(
      q, k, pool_,
      [&](Index r) {
        const Index u = user_ids[static_cast<std::size_t>(r)];
        return WalkRow{users_.Row(u),
                       clustering_.assignment[static_cast<std::size_t>(u)],
                       Real{0}};
      },
      out);
  mean_items_visited_.store(
      static_cast<double>(visited) / static_cast<double>(q),
      std::memory_order_relaxed);
  stage_timer_.Add("traversal", traversal_timer.Seconds());
  return Status::OK();
}

Index MaximusSolver::AssignNewUser(const Real* user) const {
  return AssignToNearest(user, clustering_.centroids);
}

Status MaximusSolver::TopKForNewUsers(const Real* vectors, Index num_rows,
                                      Index k, TopKResult* out) const {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (num_rows < 0) return Status::InvalidArgument("num_rows must be >= 0");
  if (lists_.empty()) {
    return Status::FailedPrecondition("Prepare was not called");
  }
  *out = TopKResult(num_rows, k);
  if (num_rows == 0) return Status::OK();
  if (vectors == nullptr) {
    return Status::InvalidArgument("vectors must not be null");
  }

  const Index n = items_.rows();
  const Index f = items_.cols();
  const Index first_segment = lists_.front().block.rows() > 0
                                  ? lists_.front().block.rows()
                                  : n;
  ThreadPool* pool = static_cast<int64_t>(num_rows) * first_segment * f <
                             kMinParallelMacs
                         ? nullptr
                         : pool_;

  const int64_t visited = Walk(
      num_rows, k, pool,
      [&](Index r) {
        const Real* user = vectors + static_cast<std::size_t>(r) * f;
        const Index j = AssignNewUser(user);
        // A new user may sit outside the cluster's theta_b cone.  CBound
        // is Lipschitz in the angle with constant ||i||, so widening the
        // cone by delta inflates every bound by at most
        // max_item_norm * delta; adding that slack to the sorted bounds
        // keeps termination exact.
        const Real theta_uc = AngleFromCosine(
            CosineSimilarity(user, clustering_.centroids.Row(j), f));
        const Real delta = std::max(
            Real{0}, theta_uc - theta_b_[static_cast<std::size_t>(j)]);
        return WalkRow{user, j, max_item_norm_ * delta};
      },
      out);
  mean_items_visited_.store(
      static_cast<double>(visited) / static_cast<double>(num_rows),
      std::memory_order_relaxed);
  return Status::OK();
}

Status MaximusSolver::QueryDynamicUser(const Real* user, Index k,
                                       TopKEntry* out_row) const {
  TopKResult one;
  MIPS_RETURN_IF_ERROR(TopKForNewUsers(user, 1, k, &one));
  std::copy_n(one.Row(0), k, out_row);
  return Status::OK();
}

void AddMaximusSchemaParams(SolverSchema* schema) {
  schema
      ->Int("clusters", MaximusOptions{}.num_clusters,
            "number of k-means user clusters |C|")
      .Int("iterations", MaximusOptions{}.kmeans_iterations,
           "k-means refinement iterations")
      .Int("block_size", MaximusOptions{}.block_size,
           "items covered by the shared per-cluster GEMM "
           "(-1 = auto, 0 = no blocking)")
      .Bool("spherical", MaximusOptions{}.spherical_clustering,
            "use spherical k-means for the user clustering")
      .Int("seed", static_cast<int64_t>(MaximusOptions{}.seed),
           "clustering RNG seed");
}

Status ParseMaximusOptions(const ParamMap& params, MaximusOptions* options) {
  auto clusters = params.GetIndexChecked("clusters");
  MIPS_RETURN_IF_ERROR(clusters.status());
  auto iterations = params.GetIndexChecked("iterations");
  MIPS_RETURN_IF_ERROR(iterations.status());
  auto block_size = params.GetIndexChecked("block_size");
  MIPS_RETURN_IF_ERROR(block_size.status());
  if (*clusters <= 0) {
    return Status::InvalidArgument("clusters must be positive");
  }
  if (*iterations < 0) {
    return Status::InvalidArgument("iterations must be >= 0");
  }
  if (*block_size < -1) {
    return Status::InvalidArgument("block_size must be >= -1");
  }
  options->num_clusters = *clusters;
  options->kmeans_iterations = static_cast<int>(*iterations);
  options->block_size = *block_size;
  options->spherical_clustering = params.GetBool("spherical");
  options->seed = static_cast<uint64_t>(params.GetInt("seed"));
  return Status::OK();
}

namespace {

const SolverRegistrar kMaximusRegistrar(
    [] {
      SolverSchema schema("maximus",
                          "MAXIMUS clustered exact MIPS index (Section III)");
      AddMaximusSchemaParams(&schema);
      return schema;
    }(),
    [](const ParamMap& params) -> StatusOr<std::unique_ptr<MipsSolver>> {
      MaximusOptions options;
      MIPS_RETURN_IF_ERROR(ParseMaximusOptions(params, &options));
      return std::unique_ptr<MipsSolver>(new MaximusSolver(options));
    });

}  // namespace

}  // namespace mips
