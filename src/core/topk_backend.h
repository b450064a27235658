// TopKBackend: the one exact top-K query surface every serving layer
// implements.
//
// MipsEngine (one OPTIMUS decision over one catalog), ShardedMipsEngine
// (scatter/gather over per-shard engines) and LiveCatalog (an epoch
// engine plus the write buffer's side scan) all answer the same two
// questions — top-K for known users, and top-K for a batch of vectors
// outside the user matrix (Section III-E) — under the same exactness
// contract and argument rules.  Each implements TopK and ServeNewUsers;
// the base writes the rest once:
//
//   * TopKAll is TopK over every prepared user.
//   * TopKNewUsers runs CheckNewUsers, then ServeNewUsers.  A layer over
//     inner backends (shards, an epoch engine) serves through their
//     ServeNewUsers via ServeNewUsersOn, so a batch is checked once, at
//     the outermost layer, not once per layer.
//   * TopKNewUser is the one-row case of TopKNewUsers, so a singleton
//     answer is bit-for-bit the row a coalesced batch would produce.
//   * CheckKnownUsers / CheckNewUsers are the argument checks: k > 0,
//     user ids in range, and new-user vectors non-null and finite.
//     TopK implementations run CheckKnownUsers first.  A NaN or infinite
//     coordinate has no place in the BetterEntry order, so it fails with
//     InvalidArgument instead of returning solver-dependent rows.
//
// Front ends take a TopKBackend* and never need to know which layer
// serves (the CLI's serve block, a BatchingEngine backend lambda, a
// LiveCatalog epoch).  Thread safety is each implementation's contract;
// all three are safe for concurrent callers after Open.

#ifndef MIPS_CORE_TOPK_BACKEND_H_
#define MIPS_CORE_TOPK_BACKEND_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "common/status.h"
#include "common/types.h"
#include "topk/result.h"

namespace mips {

/// InvalidArgument naming the first NaN or infinite entry of `values`
/// ("<what> coordinate i is nan"); OK when every entry is finite.
Status CheckFinite(std::span<const Real> values, std::string_view what);

/// Exact top-K over one catalog; see the file comment.
class TopKBackend {
 public:
  virtual ~TopKBackend() = default;
  TopKBackend(const TopKBackend&) = delete;
  TopKBackend& operator=(const TopKBackend&) = delete;

  /// Exact top-K for a mini-batch of known users (ids into the user
  /// matrix).  Entry ids are the backend's catalog item ids.
  virtual Status TopK(Index k, std::span<const Index> user_ids,
                      TopKResult* out) = 0;

  /// Exact top-K for `num_rows` vectors outside the user matrix, stored
  /// row-major (num_rows x num_factors()).  Row r of *out depends only
  /// on input row r, so a serving layer may coalesce rows from many
  /// callers without changing any answer.  CheckNewUsers, then
  /// ServeNewUsers.
  Status TopKNewUsers(const Real* user_vectors, Index num_rows, Index k,
                      TopKResult* out);

  /// Retires every cached strategy decision (the "statistics changed"
  /// hook); returns how many were cached.  Exactness is unaffected.
  virtual int64_t InvalidateDecisions() = 0;

  /// The strategy serving the decision k right now; a sharded backend
  /// joins its per-shard strategies with ',' ("" for an empty shard).
  virtual std::string StrategySummary() const = 0;

  virtual Index num_users() const = 0;
  virtual Index num_items() const = 0;
  virtual Index num_factors() const = 0;

  /// Exact top-K for every prepared user.
  Status TopKAll(Index k, TopKResult* out);

  /// Exact top-K for one vector outside the user matrix; `out_row` must
  /// hold k entries.  Served as a one-row TopKNewUsers batch.
  Status TopKNewUser(const Real* user_vector, Index k, TopKEntry* out_row);

 protected:
  TopKBackend() = default;

  /// k > 0 and every id in [0, num_users()).
  Status CheckKnownUsers(Index k, std::span<const Index> user_ids) const;
  /// k > 0, a non-null batch of num_rows > 0 rows, every coordinate
  /// finite.
  Status CheckNewUsers(const Real* user_vectors, Index num_rows,
                       Index k) const;

  /// TopKNewUsers on a batch that has passed CheckNewUsers.
  virtual Status ServeNewUsers(const Real* user_vectors, Index num_rows,
                               Index k, TopKResult* out) = 0;

  /// `inner`'s ServeNewUsers, for a layer that has already checked the
  /// batch (k may differ from the checked one but stays positive).
  static Status ServeNewUsersOn(TopKBackend& inner, const Real* user_vectors,
                                Index num_rows, Index k, TopKResult* out) {
    return inner.ServeNewUsers(user_vectors, num_rows, k, out);
  }
};

}  // namespace mips

#endif  // MIPS_CORE_TOPK_BACKEND_H_
