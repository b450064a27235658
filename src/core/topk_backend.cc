#include "core/topk_backend.h"

#include <cmath>
#include <numeric>
#include <vector>

namespace mips {

Status CheckFinite(std::span<const Real> values, std::string_view what) {
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (!std::isfinite(values[i])) {
      return Status::InvalidArgument(
          std::string(what) + " coordinate " + std::to_string(i) + " is " +
          (std::isnan(values[i]) ? "nan" : values[i] > 0 ? "+inf" : "-inf"));
    }
  }
  return Status::OK();
}

Status TopKBackend::TopKAll(Index k, TopKResult* out) {
  std::vector<Index> ids(static_cast<std::size_t>(num_users()));
  std::iota(ids.begin(), ids.end(), Index{0});
  return TopK(k, ids, out);
}

Status TopKBackend::TopKNewUsers(const Real* user_vectors, Index num_rows,
                                 Index k, TopKResult* out) {
  MIPS_RETURN_IF_ERROR(CheckNewUsers(user_vectors, num_rows, k));
  return ServeNewUsers(user_vectors, num_rows, k, out);
}

Status TopKBackend::TopKNewUser(const Real* user_vector, Index k,
                                TopKEntry* out_row) {
  TopKResult one;
  MIPS_RETURN_IF_ERROR(TopKNewUsers(user_vector, 1, k, &one));
  const TopKEntry* row = one.Row(0);
  for (Index e = 0; e < k; ++e) out_row[e] = row[e];
  return Status::OK();
}

Status TopKBackend::CheckKnownUsers(Index k,
                                    std::span<const Index> user_ids) const {
  if (k <= 0) {
    return Status::InvalidArgument("k must be positive, got " +
                                   std::to_string(k));
  }
  for (const Index id : user_ids) {
    if (id < 0 || id >= num_users()) {
      return Status::OutOfRange("user id out of range: " +
                                std::to_string(id) + " (have " +
                                std::to_string(num_users()) + " users)");
    }
  }
  return Status::OK();
}

Status TopKBackend::CheckNewUsers(const Real* user_vectors, Index num_rows,
                                  Index k) const {
  if (k <= 0) {
    return Status::InvalidArgument("k must be positive, got " +
                                   std::to_string(k));
  }
  if (user_vectors == nullptr) {
    return Status::InvalidArgument("user_vectors must not be null");
  }
  if (num_rows <= 0) {
    return Status::InvalidArgument("num_rows must be positive, got " +
                                   std::to_string(num_rows));
  }
  return CheckFinite(
      {user_vectors, static_cast<std::size_t>(num_rows) *
                         static_cast<std::size_t>(num_factors())},
      "user vector");
}

}  // namespace mips
