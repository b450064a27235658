#include "solvers/bmm.h"

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "solvers/registry.h"

namespace mips {

Status BmmSolver::Prepare(const ConstRowBlock& users,
                          const ConstRowBlock& items) {
  if (users.cols() != items.cols()) {
    return Status::InvalidArgument("user/item factor dimensions differ");
  }
  if (items.rows() <= 0) {
    return Status::InvalidArgument("item set is empty");
  }
  users_ = users;
  items_ = std::make_shared<const PackedItems>(items);
  prepared_users_ = users.rows();

  if (options_.batch_rows > 0) {
    resolved_batch_rows_ = options_.batch_rows;
  } else {
    const std::size_t row_bytes =
        static_cast<std::size_t>(items.rows()) * sizeof(Real);
    const std::size_t rows = options_.score_block_bytes / std::max<std::size_t>(
                                                              1, row_bytes);
    resolved_batch_rows_ = static_cast<Index>(
        std::clamp<std::size_t>(rows, 128, 8192));
  }
  return Status::OK();
}

Status BmmSolver::TopKForUsers(Index k, std::span<const Index> user_ids,
                               TopKResult* out) {
  if (k <= 0) return Status::InvalidArgument("k must be positive");
  if (items_ == nullptr) {
    return Status::FailedPrecondition("Prepare was not called");
  }
  const Index q = static_cast<Index>(user_ids.size());
  *out = TopKResult(q, k);
  // One call over every user, so the fused scorer picks its threading
  // regime from the whole batch (topk/fused_topk.h).
  std::vector<const Real*> rows(user_ids.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    rows[r] = users_.Row(user_ids[r]);
  }
  FusedTopK(*items_, rows, k, out, /*row_offset=*/0, pool_);
  return Status::OK();
}

namespace {

const SolverRegistrar kBmmRegistrar(
    SolverSchema("bmm", "blocked-GEMM brute force (Section II-B)")
        .Int("batch_rows", BmmOptions{}.batch_rows,
             "kept for older specs: fused scoring keeps no score block, "
             "so it no longer changes a run (0 = auto from "
             "score_block_bytes)")
        .Int("score_block_bytes",
             static_cast<int64_t>(BmmOptions{}.score_block_bytes),
             "kept for older specs: resolves batch_rows = 0 to the "
             "users whose score rows would fill this many bytes"),
    [](const ParamMap& params) -> StatusOr<std::unique_ptr<MipsSolver>> {
      BmmOptions options;
      auto batch_rows = params.GetIndexChecked("batch_rows");
      MIPS_RETURN_IF_ERROR(batch_rows.status());
      const int64_t block_bytes = params.GetInt("score_block_bytes");
      if (*batch_rows < 0) {
        return Status::InvalidArgument("batch_rows must be >= 0");
      }
      if (block_bytes <= 0) {
        return Status::InvalidArgument("score_block_bytes must be positive");
      }
      options.batch_rows = *batch_rows;
      options.score_block_bytes = static_cast<std::size_t>(block_bytes);
      return std::unique_ptr<MipsSolver>(new BmmSolver(options));
    });

}  // namespace

}  // namespace mips
