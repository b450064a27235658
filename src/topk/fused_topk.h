// Fused dense top-K scorer: the blocked GEMM and the per-row top-K
// reduction in one pass, so no score block is ever written out.
//
// The paper's BMM baseline (Section II-B) scores a block of users with a
// blocked GEMM and then reduces each row with a min-heap.  Written
// separately, the reduction re-reads a score block the GEMM first
// zero-fills and then writes, and that costs more than the GEMM itself.
// Here the items are packed once into kGemmNR-wide panels (PackedItems);
// every MR x NR micro-tile of scores is computed into an L1 scratch tile
// by the installed micro-kernel and then compared, row by row, against
// that row's cached heap minimum by a per-ISA admit epilogue
// (linalg/gemm_kernel.h).  Only the lanes that pass reach the heap.
//
// Exactness: every score is the GemmNT score bit for bit.  The scratch
// tile starts at +0 and the kernel folds each kGemmKPanel pass into it in
// panel order, which is GemmNT's beta = 0 fold (-0.0 included).  The
// admit test is TopKHeap::WouldAccept's `score >= min`, so the heap sees
// every candidate TopKFromRow would push, in the same ascending item
// order, and the rows equal GemmNT + TopKFromScoreBlock: same ids, same
// score bits, BetterEntry ties and {-1, -inf} sentinel tails included.
// A NaN score is never admitted, as before.

#ifndef MIPS_TOPK_FUSED_TOPK_H_
#define MIPS_TOPK_FUSED_TOPK_H_

#include <span>
#include <vector>

#include "linalg/matrix.h"
#include "topk/result.h"

namespace mips {

class ThreadPool;

/// A set of item rows packed once into kGemmNR-wide micro-kernel panels
/// over their full depth (linalg/gemm.h PackRowPanels).
class PackedItems {
 public:
  PackedItems() = default;

  /// Packs every row of `items`; row j is reported as item j.
  explicit PackedItems(const ConstRowBlock& items);

  /// Packs rows `ids` of `items` (ascending, so ties still resolve in
  /// global item order); packed row r is reported as item ids[r].  An
  /// empty `ids` packs nothing.
  PackedItems(const ConstRowBlock& items, std::vector<Index> ids);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  Index num_panels() const;

  /// Panel p: depth x kGemmNR, covering packed rows [p * NR, p * NR + NR).
  const Real* Panel(Index p) const;

  /// The reported id of packed row r.
  Index ItemId(Index r) const {
    return ids_.empty() ? r : ids_[static_cast<std::size_t>(r)];
  }

 private:
  void Pack(std::span<const Real* const> rows);

  Index rows_ = 0;
  Index cols_ = 0;
  std::vector<Index> ids_;  // empty: row r is item r
  std::vector<Real> panels_;
};

/// Writes the top-k items of each query row against every packed item
/// into out rows [row_offset, row_offset + queries.size()), sorted by
/// BetterEntry and sentinel-padded when k exceeds the item count.  Each
/// query points at items.cols() Reals.  *out must already have room.
///
/// With a pool of T > 1 threads, at least T * 128 queries are split
/// statically across the workers; fewer queries share the item panels
/// instead, and each row is merged from the workers' partial rows.  A
/// call under about a million multiply-adds runs on the caller.  All
/// give the serial answer bit for bit.  Must not be called from inside a
/// task running on `pool`.
void FusedTopK(const PackedItems& items, std::span<const Real* const> queries,
               Index k, TopKResult* out, Index row_offset, ThreadPool* pool);

}  // namespace mips

#endif  // MIPS_TOPK_FUSED_TOPK_H_
