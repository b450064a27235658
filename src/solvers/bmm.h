// Blocked matrix multiply (BMM) brute force — Section II-B.
//
// The paper scores a block of users with one blocked GEMM and reduces
// each score row to its top K with a bounded min-heap.  Here both run in
// one pass (topk/fused_topk.h): the items are packed into micro-kernel
// panels once at Prepare, and each register tile of scores is checked
// against the rows' heap minima while it is still in L1, so no score
// block is written or re-read.  The heap work is the K-dependent tail the
// paper notes ("the runtime for blocked matrix multiply varies with K").
//
// With a thread pool, large query batches are statically partitioned
// across users (the paper's Figure 6 strategy); small batches instead
// split the item panels across the pool and merge each row, so a handful
// of users against a wide item set still uses every core.  Both paths
// produce results bit-identical to the single-threaded solver and to
// GemmNT + TopKFromScoreBlock.

#ifndef MIPS_SOLVERS_BMM_H_
#define MIPS_SOLVERS_BMM_H_

#include <memory>

#include "solvers/solver.h"
#include "topk/fused_topk.h"

namespace mips {

/// Options for the BMM solver.  Both fields date from the unfused solver,
/// which materialized a batch_rows x n score block per pass.  The fused
/// scorer keeps none and scores every user of a call in one pass, so they
/// no longer change a run; they are still parsed and resolved so existing
/// specs keep working and batch_rows() reports what they ask for.
struct BmmOptions {
  /// 0 = resolve from the byte budget below.
  Index batch_rows = 0;
  /// When batch_rows == 0: the number of users whose score rows against
  /// the whole catalog would fill this many bytes, clamped to [128, 8192].
  std::size_t score_block_bytes = 16ull << 20;
};

/// Hardware-efficient brute force via the fused GEMM + per-row top-K.
class BmmSolver : public MipsSolver {
 public:
  explicit BmmSolver(const BmmOptions& options = {}) : options_(options) {}

  std::string name() const override { return "bmm"; }
  bool batches_users() const override { return true; }

  Status Prepare(const ConstRowBlock& users,
                 const ConstRowBlock& items) override;
  Status TopKForUsers(Index k, std::span<const Index> user_ids,
                      TopKResult* out) override;

  /// Resolved batch size (after Prepare).
  Index batch_rows() const { return resolved_batch_rows_; }

  /// The catalog packed at Prepare (null before), shared so an engine
  /// that also scores new users densely keeps one packed copy.
  const std::shared_ptr<const PackedItems>& packed_items() const {
    return items_;
  }

 private:
  BmmOptions options_;
  ConstRowBlock users_;
  std::shared_ptr<const PackedItems> items_;
  Index resolved_batch_rows_ = 0;
};

}  // namespace mips

#endif  // MIPS_SOLVERS_BMM_H_
