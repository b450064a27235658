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

/// The unfused solver's score-block budget.  The fused scorer writes no
/// score block and takes no options; the budget stays only as the block
/// size the benchmark's per-layer GEMM + selection probe times.
struct BmmOptions {
  /// Bytes of score rows one unfused GEMM pass would fill.
  std::size_t score_block_bytes = 16ull << 20;
};

/// Hardware-efficient brute force via the fused GEMM + per-row top-K.
class BmmSolver : public MipsSolver {
 public:

  std::string name() const override { return "bmm"; }
  bool batches_users() const override { return true; }

  Status Prepare(const ConstRowBlock& users,
                 const ConstRowBlock& items) override;
  Status TopKForUsers(Index k, std::span<const Index> user_ids,
                      TopKResult* out) override;

  /// The catalog packed at Prepare (null before), shared so an engine
  /// that also scores new users densely keeps one packed copy.
  const std::shared_ptr<const PackedItems>& packed_items() const {
    return items_;
  }

 private:
  ConstRowBlock users_;
  std::shared_ptr<const PackedItems> items_;
};

}  // namespace mips

#endif  // MIPS_SOLVERS_BMM_H_
