// Row selectors of the fused dense scorer (topk/fused_topk.h).
//
// A selector keeps the best entries (BetterEntry) of each row of one slab
// of queries and, at End, writes them sorted, with {-1, -inf} sentinel
// tails, to the slab's output rows (stride k).  Push is called only for a
// candidate that passed the admit test (score >= the row's minimum, never
// NaN), in ascending item order per row, and returns the row's new
// minimum: -inf until the row holds k entries.  Both selectors therefore
// see exactly the candidates TopKFromRow would push and give its rows bit
// for bit; they differ only in cost, which bench/micro_kernels measures
// (BM_SlabRowsSorted / BM_SlabRowsHeap) and kSortedRowsMaxK follows.

#ifndef MIPS_TOPK_SLAB_ROWS_H_
#define MIPS_TOPK_SLAB_ROWS_H_

#include <algorithm>
#include <limits>
#include <vector>

#include "topk/result.h"
#include "topk/topk_heap.h"

namespace mips {

/// Each row is kept sorted best-first in place in its output row.  An
/// admitted entry usually lands near the bottom, so insertion is a short
/// shift, cheaper than a heap's sift-down and sift-up while k is small.
class SortedSlabRows {
 public:
  SortedSlabRows(Index k, Index max_rows)
      : k_(k), sizes_(static_cast<std::size_t>(max_rows)) {}

  void Begin(TopKEntry* rows, Index mb) {
    rows_ = rows;
    std::fill(sizes_.begin(), sizes_.begin() + mb, 0);
  }

  Real Push(Index r, const TopKEntry& candidate) {
    TopKEntry* row = rows_ + static_cast<std::size_t>(r) * k_;
    Index& size = sizes_[static_cast<std::size_t>(r)];
    Index i = size;
    if (size < k_) {
      ++size;
    } else if (BetterEntry(candidate, row[k_ - 1])) {
      i = k_ - 1;
    } else {
      return row[k_ - 1].score;  // an exact tie with a lower id stays
    }
    for (; i > 0 && BetterEntry(candidate, row[i - 1]); --i) {
      row[i] = row[i - 1];
    }
    row[i] = candidate;
    return size < k_ ? -std::numeric_limits<Real>::infinity()
                     : row[k_ - 1].score;
  }

  void End(Index mb) {
    for (Index r = 0; r < mb; ++r) {
      TopKEntry* row = rows_ + static_cast<std::size_t>(r) * k_;
      std::fill(row + sizes_[static_cast<std::size_t>(r)], row + k_,
                TopKEntry{-1, -std::numeric_limits<Real>::infinity()});
    }
  }

 private:
  Index k_;
  TopKEntry* rows_ = nullptr;
  std::vector<Index> sizes_;
};

/// One TopKHeap per row: O(log k) per push, where a sorted row would
/// shift O(k) entries.
class HeapSlabRows {
 public:
  HeapSlabRows(Index k, Index max_rows)
      : k_(k), heaps_(static_cast<std::size_t>(max_rows), TopKHeap(k)) {}

  void Begin(TopKEntry* rows, Index mb) {
    rows_ = rows;
    for (Index r = 0; r < mb; ++r) heaps_[static_cast<std::size_t>(r)].Clear();
  }

  Real Push(Index r, const TopKEntry& candidate) {
    TopKHeap& heap = heaps_[static_cast<std::size_t>(r)];
    heap.Push(candidate.item, candidate.score);
    return heap.MinScore();
  }

  void End(Index mb) {
    for (Index r = 0; r < mb; ++r) {
      heaps_[static_cast<std::size_t>(r)].ExtractDescending(
          rows_ + static_cast<std::size_t>(r) * k_);
    }
  }

 private:
  Index k_;
  TopKEntry* rows_ = nullptr;
  std::vector<TopKHeap> heaps_;
};

/// The fused scorer uses SortedSlabRows up to this k and HeapSlabRows
/// above it.  In BM_SlabRows the sorted row wins at every k <= 100 on
/// both benchmark shapes; from k = 128 the heap wins on the wide catalog
/// (n = 8204) and by 2x at k = 500.
inline constexpr Index kSortedRowsMaxK = 100;

}  // namespace mips

#endif  // MIPS_TOPK_SLAB_ROWS_H_
