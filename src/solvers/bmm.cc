#include "solvers/bmm.h"

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
    SolverSchema("bmm", "blocked-GEMM brute force (Section II-B)"),
    [](const ParamMap&) -> StatusOr<std::unique_ptr<MipsSolver>> {
      return std::unique_ptr<MipsSolver>(new BmmSolver());
    });

}  // namespace

}  // namespace mips
