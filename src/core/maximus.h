// MAXIMUS: the paper's hardware-friendly exact MIPS index (Section III).
//
// Construction (Algorithm 1, ConstructIndex):
//   1. Cluster users with k-means (|C| = 8 clusters, i = 3 iterations by
//      default; spherical k-means available for the lesion study).
//   2. Per cluster j: theta_b = max member angle to the centroid; compute
//      the Equation-3 bound for every item and sort items by it
//      (descending) into the cluster's list L[j].
//
// Query (Algorithm 1, QueryIndex): walk the user's cluster list with a
// K-heap of true (normalized) scores; stop at the first position whose
// bound cannot beat min(H).  Scores are computed on the *normalized* user
// so they are directly comparable to the scale-free bound; final results
// are rescaled by ||u|| (ordering is scale-invariant).
//
// Hardware-efficient item blocking (Section III-D): each cluster list is
// scored in B-item segments, one blocked GEMM per segment over a tile of
// up to 128 queried rows of that cluster still walking, so the work is
// shared across users.  The first segment's items are gathered at
// construction.
//
// New users (Section III-E) take the same walk: TopKForNewUsers assigns
// each row to its nearest centroid, groups the rows by cluster, and
// widens each row's bounds by its Lipschitz slack
// max_item_norm * max(0, theta_uc - theta_b), so a row outside the
// cluster cone still stops exactly.  Members walk with slack 0.

#ifndef MIPS_CORE_MAXIMUS_H_
#define MIPS_CORE_MAXIMUS_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "cluster/kmeans.h"
#include "solvers/solver.h"

namespace mips {

/// MAXIMUS parameters (paper defaults: B = 4096, |C| = 8, i = 3).
struct MaximusOptions {
  Index num_clusters = 8;
  int kmeans_iterations = 3;
  /// Items covered by the shared per-cluster GEMM.  -1 = auto: |I|/8
  /// clamped to [64, 4096] — the paper's B = 4096 assumes full-scale item
  /// catalogs (17K-1M items); at down-scaled sizes a fixed 4096 would cover
  /// the whole catalog and degenerate MAXIMUS into BMM.  0 disables
  /// blocking (the Figure 8 lesion); > 0 is an explicit block size.
  Index block_size = -1;
  /// Use spherical k-means instead of plain k-means (Section III-A study).
  bool spherical_clustering = false;
  uint64_t seed = 42;
};

class SolverSchema;
class ParamMap;

/// Declares the MAXIMUS schema parameters (clusters, iterations,
/// block_size, spherical, seed) on `schema` — shared by the maximus and
/// dynamic-maximus registrars so their accepted specs cannot drift.
void AddMaximusSchemaParams(SolverSchema* schema);

/// Parses and range-checks the shared parameters into `options`.
Status ParseMaximusOptions(const ParamMap& params, MaximusOptions* options);

/// The MAXIMUS exact MIPS index.
class MaximusSolver : public MipsSolver {
 public:
  explicit MaximusSolver(const MaximusOptions& options = {})
      : options_(options) {}

  std::string name() const override { return "maximus"; }
  bool batches_users() const override { return true; }

  Status Prepare(const ConstRowBlock& users,
                 const ConstRowBlock& items) override;
  Status TopKForUsers(Index k, std::span<const Index> user_ids,
                      TopKResult* out) override;

  /// Average number of item-list positions visited per user in the last
  /// query batch (the w-bar of the Section III-D runtime analysis).
  /// Under concurrent queries this reflects whichever batch finished last.
  double mean_items_visited() const {
    return mean_items_visited_.load(std::memory_order_relaxed);
  }

  /// Cluster-wide max user-centroid angles theta_b (per cluster).
  const std::vector<Real>& theta_b() const { return theta_b_; }

  /// The clustering produced during Prepare.
  const Clustering& clustering() const { return clustering_; }

  /// Assigns an unseen user vector to its nearest centroid and returns the
  /// cluster id — the Section III-E dynamic-user path.  The bound remains
  /// valid for the new user only if its angle to the centroid is <=
  /// theta_b; TopKForNewUsers handles the general case by widening the
  /// effective bound with the user's own angle.
  Index AssignNewUser(const Real* user) const;

  /// Exact top-K for `num_rows` user vectors that were not part of
  /// Prepare's user set, stored row-major (num_rows x f).  Rows are
  /// grouped by assigned cluster and walked with TopKForUsers' blocked
  /// GEMM walk, each row's bounds widened by its slack (file comment).
  /// Row r of *out depends only on row r, bit for bit, so a vector gets
  /// the same answer alone or in any batch.  A call under about 2^20
  /// multiply-adds runs on the caller; a larger one spreads its rows over
  /// the thread pool.
  Status TopKForNewUsers(const Real* vectors, Index num_rows, Index k,
                         TopKResult* out) const;

  /// One-row TopKForNewUsers; `out_row` must hold k entries.
  Status QueryDynamicUser(const Real* user, Index k, TopKEntry* out_row) const;

 private:
  struct ClusterList {
    std::vector<Index> item_ids;   // items sorted by descending bound
    std::vector<Real> bounds;      // the sorted Equation-3 bounds
    Matrix block;                  // first min(B, n) item vectors, gathered
  };

  /// One query row as the walk sees it: its vector, its cluster, and the
  /// amount its bounds are widened by.
  struct WalkRow {
    const Real* vector;
    Index cluster;
    Real slack;
  };
  struct WalkScratch;

  /// Exact top-K of rows [0, q) into *out, where locate(r) gives row r.
  /// Splits the rows over `pool`, groups each chunk by cluster, and walks
  /// each group in tiles with WalkList.  Returns the list positions
  /// visited.
  template <typename Locate>
  int64_t Walk(Index q, Index k, ThreadPool* pool, const Locate& locate,
               TopKResult* out) const;

  /// Walks `list` for the first `m` rows of the scratch tile (unit-norm
  /// rows, their slacks and heaps).  Row r stops at the first position
  /// whose bound plus slack[r] falls strictly below its heap minimum.
  /// Returns the positions visited.
  int64_t WalkList(const ClusterList& list, Index m,
                   WalkScratch* scratch) const;

  MaximusOptions options_;
  ConstRowBlock users_;
  ConstRowBlock items_;

  Clustering clustering_;
  std::vector<Real> theta_b_;
  std::vector<ClusterList> lists_;
  /// Largest item norm: the Lipschitz constant of the bounds in theta.
  Real max_item_norm_ = 0;

  mutable std::atomic<double> mean_items_visited_{0};
};

}  // namespace mips

#endif  // MIPS_CORE_MAXIMUS_H_
