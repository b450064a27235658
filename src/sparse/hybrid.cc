#include "sparse/hybrid.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "solvers/registry.h"
#include "topk/merge.h"

namespace mips {

Status HybridSolver::Prepare(const ConstRowBlock& users,
                             const ConstRowBlock& items) {
  if (users.cols() != items.cols()) {
    return Status::InvalidArgument("user/item factor dimensions differ");
  }
  WallTimer timer;
  users_ = users;
  prepared_users_ = users.rows();

  const Index f = items.cols();
  std::vector<Index> dense_ids;
  sparse_ids_.clear();
  for (Index r = 0; r < items.rows(); ++r) {
    const Real* row = items.Row(r);
    Index nnz = 0;
    for (Index c = 0; c < f; ++c) {
      if (row[c] != Real{0}) ++nnz;
    }
    const Real density =
        f > 0 ? static_cast<Real>(nnz) / static_cast<Real>(f) : Real{0};
    if (density >= density_threshold_) {
      dense_ids.push_back(r);
    } else {
      sparse_ids_.push_back(r);
    }
  }

  sparse_csr_ = CsrMatrix::FromDenseRows(items, sparse_ids_);
  sparse_index_ = InvertedIndex::Build(sparse_csr_, order_);
  dense_items_ = PackedItems(items, std::move(dense_ids));
  stage_timer_.Add("construction", timer.Seconds());
  return Status::OK();
}

Status HybridSolver::TopKForUsers(Index k, std::span<const Index> user_ids,
                                  TopKResult* out) {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  const Index q = static_cast<Index>(user_ids.size());
  *out = TopKResult(q, k);
  const bool has_sparse = sparse_csr_.rows() > 0;

  ParallelFor(pool_, q, [&](int64_t begin, int64_t end, int /*chunk*/) {
    const Index b = static_cast<Index>(begin);
    const Index m = static_cast<Index>(end - begin);
    std::vector<const Real*> rows(static_cast<std::size_t>(m));
    for (Index r = 0; r < m; ++r) {
      rows[static_cast<std::size_t>(r)] =
          users_.Row(user_ids[static_cast<std::size_t>(b + r)]);
    }
    // The dense partition goes through the fused scorer; its packed rows
    // report global item ids, so its rows merge as they are.
    if (!has_sparse) {
      FusedTopK(dense_items_, rows, k, out, b, /*pool=*/nullptr);
      return;
    }
    TopKResult dense(m, k);
    FusedTopK(dense_items_, rows, k, &dense, 0, /*pool=*/nullptr);
    TopKHeap heap(k);
    SparseQueryScratch scratch;
    std::vector<TopKEntry> sparse_row(static_cast<std::size_t>(k));
    for (Index r = 0; r < m; ++r) {
      SparseTopKQuery(sparse_csr_, sparse_index_,
                      rows[static_cast<std::size_t>(r)], k, sparse_ids_,
                      &scratch, &heap, sparse_row.data(), /*stats=*/nullptr);
      const TopKEntry* parts[] = {dense.Row(r), sparse_row.data()};
      MergeTopKRows(parts, k, k, out->Row(b + r));
    }
  });
  return Status::OK();
}

namespace {

const SolverRegistrar kHybridRegistrar(
    SolverSchema("hybrid",
                 "density-split dense GEMM + sparse inverted-index "
                 "execution with an exact top-K merge")
        .Real("density_threshold", 0.25,
              "items with row density >= this go to the dense GEMM "
              "partition; the rest to the CSR inverted index (0 = all "
              "dense, > 1 = all sparse)")
        .String("postings", "abs",
                "posting-list order of the sparse partition: \"abs\" or "
                "\"id\" (see sindi)"),
    [](const ParamMap& params) -> StatusOr<std::unique_ptr<MipsSolver>> {
      const double threshold = params.GetReal("density_threshold");
      if (!(threshold >= 0)) {  // rejects negatives and NaN
        return Status::InvalidArgument(
            "hybrid: density_threshold must be >= 0");
      }
      const std::string& postings = params.GetString("postings");
      PostingOrder order;
      if (postings == "abs") {
        order = PostingOrder::kAbsDescending;
      } else if (postings == "id") {
        order = PostingOrder::kItemAscending;
      } else {
        return Status::InvalidArgument(
            "hybrid: postings must be \"abs\" or \"id\", got \"" + postings +
            "\"");
      }
      return std::unique_ptr<MipsSolver>(
          new HybridSolver(static_cast<Real>(threshold), order));
    });

}  // namespace

}  // namespace mips
