#include "core/dynamic_maximus.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <numeric>

#include "solvers/registry.h"

namespace mips {

Status DynamicMaximus::Initialize(const ConstRowBlock& initial_users,
                                  const ConstRowBlock& items) {
  if (initial_users.rows() <= 0 || items.rows() <= 0) {
    return Status::InvalidArgument("user and item sets must be non-empty");
  }
  if (initial_users.cols() != items.cols()) {
    return Status::InvalidArgument("user/item factor dimensions differ");
  }
  items_ = items;
  count_ = initial_users.rows();
  // Start with headroom so early AddUser calls avoid reallocation.
  const Index capacity = std::max<Index>(count_ * 2, count_ + 64);
  users_.Resize(capacity, initial_users.cols());
  std::memcpy(users_.data(), initial_users.data(),
              static_cast<std::size_t>(count_) * initial_users.cols() *
                  sizeof(Real));
  recluster_rounds_ = -1;
  return Rebuild();
}

Status DynamicMaximus::Rebuild() {
  index_ = std::make_unique<MaximusSolver>(options_.base);
  MIPS_RETURN_IF_ERROR(index_->Prepare(
      ConstRowBlock(users_.data(), count_, users_.cols()), items_));
  indexed_count_ = count_;
  ++recluster_rounds_;
  return Status::OK();
}

StatusOr<Index> DynamicMaximus::AddUser(const Real* vector) {
  if (index_ == nullptr) {
    return Status::FailedPrecondition("Initialize was not called");
  }
  const Index f = users_.cols();
  if (count_ == users_.rows()) {
    // Grow storage.  The index holds a view into the old buffer, so it
    // must be rebuilt over the new one; fold the rebuild into a full
    // re-clustering round since we are paying for a pass anyway.
    Matrix bigger(users_.rows() * 2, f);
    std::memcpy(bigger.data(), users_.data(),
                static_cast<std::size_t>(count_) * f * sizeof(Real));
    users_ = std::move(bigger);
    std::memcpy(users_.Row(count_), vector,
                static_cast<std::size_t>(f) * sizeof(Real));
    ++count_;
    MIPS_RETURN_IF_ERROR(Rebuild());
    return count_ - 1;
  }
  std::memcpy(users_.Row(count_), vector,
              static_cast<std::size_t>(f) * sizeof(Real));
  ++count_;

  const double churn = static_cast<double>(count_ - indexed_count_) /
                       static_cast<double>(std::max<Index>(1, indexed_count_));
  if (options_.recluster_churn_fraction > 0 &&
      churn > options_.recluster_churn_fraction) {
    MIPS_RETURN_IF_ERROR(Rebuild());
  }
  return count_ - 1;
}

Status DynamicMaximus::TopKForUser(Index user_id, Index k,
                                   TopKEntry* out_row) const {
  TopKResult one;
  MIPS_RETURN_IF_ERROR(
      TopKForUsers(k, std::span<const Index>(&user_id, 1), &one));
  std::copy_n(one.Row(0), k, out_row);
  return Status::OK();
}

Status DynamicMaximus::TopKForUsers(Index k, std::span<const Index> user_ids,
                                    TopKResult* out) const {
  if (index_ == nullptr) {
    return Status::FailedPrecondition("Initialize was not called");
  }
  const Index q = static_cast<Index>(user_ids.size());
  *out = TopKResult(q, k);
  // Indexed members batch through the inner index; pending users are
  // gathered into one new-user batch.
  std::vector<Index> indexed_ids;
  std::vector<Index> indexed_rows;
  std::vector<Index> pending_rows;
  for (Index r = 0; r < q; ++r) {
    const Index id = user_ids[static_cast<std::size_t>(r)];
    if (id < 0 || id >= count_) {
      return Status::OutOfRange("unknown user id");
    }
    if (id < indexed_count_) {
      indexed_ids.push_back(id);
      indexed_rows.push_back(r);
    } else {
      pending_rows.push_back(r);
    }
  }
  if (!indexed_ids.empty()) {
    TopKResult batch;
    MIPS_RETURN_IF_ERROR(index_->TopKForUsers(k, indexed_ids, &batch));
    for (std::size_t i = 0; i < indexed_rows.size(); ++i) {
      out->CopyRowFrom(batch, static_cast<Index>(i), indexed_rows[i]);
    }
  }
  if (!pending_rows.empty()) {
    const Index f = users_.cols();
    Matrix pending(static_cast<Index>(pending_rows.size()), f);
    for (std::size_t i = 0; i < pending_rows.size(); ++i) {
      std::memcpy(pending.Row(static_cast<Index>(i)),
                  users_.Row(user_ids[static_cast<std::size_t>(
                      pending_rows[i])]),
                  static_cast<std::size_t>(f) * sizeof(Real));
    }
    TopKResult batch;
    MIPS_RETURN_IF_ERROR(
        index_->TopKForNewUsers(pending.data(), pending.rows(), k, &batch));
    for (std::size_t i = 0; i < pending_rows.size(); ++i) {
      out->CopyRowFrom(batch, static_cast<Index>(i), pending_rows[i]);
    }
  }
  return Status::OK();
}

Status DynamicMaximus::TopKAll(Index k, TopKResult* out) {
  if (index_ == nullptr) {
    return Status::FailedPrecondition("Initialize was not called");
  }
  *out = TopKResult(count_, k);
  // Indexed users in one batch; pending users (rows [indexed_count_,
  // count_) of the user storage) in one new-user batch.
  std::vector<Index> indexed(static_cast<std::size_t>(indexed_count_));
  std::iota(indexed.begin(), indexed.end(), 0);
  TopKResult batch;
  MIPS_RETURN_IF_ERROR(index_->TopKForUsers(k, indexed, &batch));
  for (Index u = 0; u < indexed_count_; ++u) {
    out->CopyRowFrom(batch, u, u);
  }
  if (pending_users() == 0) return Status::OK();
  MIPS_RETURN_IF_ERROR(index_->TopKForNewUsers(
      users_.Row(indexed_count_), pending_users(), k, &batch));
  for (Index u = indexed_count_; u < count_; ++u) {
    out->CopyRowFrom(batch, u - indexed_count_, u);
  }
  return Status::OK();
}

Status DynamicMaximus::Recluster() {
  if (index_ == nullptr) {
    return Status::FailedPrecondition("Initialize was not called");
  }
  return Rebuild();
}

Status DynamicMaximusSolver::Prepare(const ConstRowBlock& users,
                                     const ConstRowBlock& items) {
  MIPS_RETURN_IF_ERROR(dynamic_.Initialize(users, items));
  prepared_users_ = users.rows();
  return Status::OK();
}

Status DynamicMaximusSolver::TopKForUsers(Index k,
                                          std::span<const Index> user_ids,
                                          TopKResult* out) {
  return dynamic_.TopKForUsers(k, user_ids, out);
}

Status DynamicMaximusSolver::TopKForNewUsers(const Real* vectors,
                                             Index num_rows, Index k,
                                             TopKResult* out) const {
  if (prepared_users_ == 0) {
    return Status::FailedPrecondition("Prepare was not called");
  }
  return dynamic_.index().TopKForNewUsers(vectors, num_rows, k, out);
}

namespace {

const SolverRegistrar kDynamicMaximusRegistrar(
    [] {
      SolverSchema schema("dynamic-maximus",
                          "MAXIMUS with user churn and automatic "
                          "re-clustering (Section III-E)");
      AddMaximusSchemaParams(&schema);
      schema.Real("recluster_churn_fraction",
                  DynamicMaximusOptions{}.recluster_churn_fraction,
                  "rebuild when pending users exceed this fraction of the "
                  "indexed population (<= 0 disables)");
      return schema;
    }(),
    [](const ParamMap& params) -> StatusOr<std::unique_ptr<MipsSolver>> {
      DynamicMaximusOptions options;
      MIPS_RETURN_IF_ERROR(ParseMaximusOptions(params, &options.base));
      options.recluster_churn_fraction =
          params.GetReal("recluster_churn_fraction");
      return std::unique_ptr<MipsSolver>(new DynamicMaximusSolver(options));
    });

}  // namespace

}  // namespace mips
