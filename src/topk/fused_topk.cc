#include "topk/fused_topk.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/dcheck.h"
#include "common/thread_pool.h"
#include "linalg/gemm.h"
#include "linalg/gemm_kernel.h"
#include "topk/merge.h"
#include "topk/slab_rows.h"

namespace mips {
namespace {

constexpr Index kMR = kGemmMR;
constexpr Index kNR = kGemmNR;
constexpr Index kKC = kGemmKPanel;

// Query rows per slab.  A slab's packed rows (kSlabRows x f) stay in L2
// while every item panel streams through L1 past them, as in GemmNT's MC
// block; it also bounds the live heaps to kSlabRows per worker.
constexpr Index kSlabRows = 128;
static_assert(kSlabRows % kMR == 0);

// Below this many queries per pool worker, splitting the queries leaves
// workers starved, so the item panels are split instead.
constexpr Index kMinQueriesPerThread = 128;

// Below this many multiply-adds a call finishes in tens of microseconds,
// less than waking the pool and merging would cost, so it runs serially.
constexpr int64_t kMinParallelMacs = int64_t{1} << 20;

// Admit bits of the valid lanes of a tile with `rows` query rows and
// `cols` items (the rest are padding and must never reach a heap).
uint64_t ValidLanes(Index rows, Index cols) {
  const uint64_t row_bits = (uint64_t{1} << cols) - 1;
  uint64_t mask = 0;
  for (Index r = 0; r < rows; ++r) mask |= row_bits << (r * kNR);
  return mask;
}

constexpr Real kNegInf = -std::numeric_limits<Real>::infinity();

// Top-k of queries against item panels [panel_begin, panel_end), into out
// rows [row_offset, row_offset + queries.size()).
template <typename Rows>
void ScorePanels(const PackedItems& items,
                 std::span<const Real* const> queries, Index k,
                 Index panel_begin, Index panel_end, TopKResult* out,
                 Index row_offset) {
  const Index q = static_cast<Index>(queries.size());
  const Index n = items.rows();
  const Index f = items.cols();
  // One dispatch load per call; a racing install is harmless because
  // every kernel and epilogue variant gives identical bits.
  const GemmMicroKernelFn kernel = ActiveGemmMicroKernel();
  const GemmTileAdmitFn admit = ActiveGemmTileAdmit();

  std::vector<Real> qpack(static_cast<std::size_t>(kSlabRows) * f);
  Rows rows(k, kSlabRows);
  // Every slab row's current minimum, cached flat for the epilogue.
  // Padding rows keep whatever they hold: their lanes are masked off.
  alignas(64) Real thresholds[kSlabRows];
  alignas(64) Real tile[kMR * kNR];

  for (Index s0 = 0; s0 < q; s0 += kSlabRows) {
    const Index mb = std::min(kSlabRows, q - s0);
    PackRowPanels(queries.subspan(static_cast<std::size_t>(s0),
                                  static_cast<std::size_t>(mb)),
                  f, kMR, qpack.data());
    std::fill(thresholds, thresholds + kSlabRows, kNegInf);
    rows.Begin(out->Row(row_offset + s0), mb);
    for (Index p = panel_begin; p < panel_end; ++p) {
      const Real* bp = items.Panel(p);
      const Index j0 = p * kNR;
      const Index nr = std::min(kNR, n - j0);
      for (Index i0 = 0; i0 < mb; i0 += kMR) {
        const Real* ap = qpack.data() + static_cast<std::size_t>(i0) * f;
        std::fill(tile, tile + kMR * kNR, Real{0});
        for (Index p0 = 0; p0 < f; p0 += kKC) {
          kernel(ap + static_cast<std::size_t>(p0) * kMR,
                 bp + static_cast<std::size_t>(p0) * kNR,
                 std::min(kKC, f - p0), /*alpha=*/1, tile, kNR);
        }
        uint64_t admitted = admit(tile, thresholds + i0) &
                            ValidLanes(std::min(kMR, mb - i0), nr);
        // Ascending bits visit each row's items in ascending id order;
        // the re-check against the refreshed minimum is WouldAccept.
        while (admitted != 0) {
          const int lane = std::countr_zero(admitted);
          admitted &= admitted - 1;
          const Index r = i0 + lane / kNR;
          const Real score = tile[lane];
          if (score < thresholds[r]) continue;
          thresholds[r] =
              rows.Push(r, {items.ItemId(j0 + lane % kNR), score});
        }
      }
    }
    rows.End(mb);
  }
}

void ScorePanels(const PackedItems& items,
                 std::span<const Real* const> queries, Index k,
                 Index panel_begin, Index panel_end, TopKResult* out,
                 Index row_offset) {
  if (k <= kSortedRowsMaxK) {
    ScorePanels<SortedSlabRows>(items, queries, k, panel_begin, panel_end,
                                out, row_offset);
  } else {
    ScorePanels<HeapSlabRows>(items, queries, k, panel_begin, panel_end, out,
                              row_offset);
  }
}

}  // namespace

PackedItems::PackedItems(const ConstRowBlock& items)
    : rows_(items.rows()), cols_(items.cols()) {
  std::vector<const Real*> rows(static_cast<std::size_t>(rows_));
  for (Index r = 0; r < rows_; ++r) {
    rows[static_cast<std::size_t>(r)] = items.Row(r);
  }
  Pack(rows);
}

PackedItems::PackedItems(const ConstRowBlock& items, std::vector<Index> ids)
    : rows_(static_cast<Index>(ids.size())),
      cols_(items.cols()),
      ids_(std::move(ids)) {
  std::vector<const Real*> rows(ids_.size());
  for (std::size_t r = 0; r < ids_.size(); ++r) {
    MIPS_DCHECK(r == 0 || ids_[r - 1] < ids_[r]);
    rows[r] = items.Row(ids_[r]);
  }
  Pack(rows);
}

void PackedItems::Pack(std::span<const Real* const> rows) {
  panels_.resize(static_cast<std::size_t>(num_panels()) * kNR * cols_);
  PackRowPanels(rows, cols_, kNR, panels_.data());
}

Index PackedItems::num_panels() const { return (rows_ + kNR - 1) / kNR; }

const Real* PackedItems::Panel(Index p) const {
  MIPS_DCHECK_GE(p, 0);
  MIPS_DCHECK_LT(p, num_panels());
  return panels_.data() + static_cast<std::size_t>(p) * cols_ * kNR;
}

void FusedTopK(const PackedItems& items, std::span<const Real* const> queries,
               Index k, TopKResult* out, Index row_offset, ThreadPool* pool) {
  MIPS_DCHECK_GT(k, 0);
  MIPS_DCHECK_EQ(out->k(), k);
  MIPS_DCHECK_LE(row_offset + static_cast<Index>(queries.size()),
                 out->num_queries());
  const Index q = static_cast<Index>(queries.size());
  const Index panels = items.num_panels();
  const int threads = pool == nullptr ? 1 : pool->num_threads();
  const int64_t macs = int64_t{q} * items.rows() * items.cols();
  if (threads <= 1 || panels <= 1 || macs < kMinParallelMacs) {
    ScorePanels(items, queries, k, 0, panels, out, row_offset);
    return;
  }
  if (q >= static_cast<Index>(threads) * kMinQueriesPerThread) {
    // The paper's Figure 6 strategy: static query partitioning.
    ParallelFor(pool, q, [&](int64_t begin, int64_t end, int /*chunk*/) {
      ScorePanels(items,
                  queries.subspan(static_cast<std::size_t>(begin),
                                  static_cast<std::size_t>(end - begin)),
                  k, 0, panels, out, row_offset + static_cast<Index>(begin));
    });
    return;
  }
  // A few queries against a wide catalog: every worker scores all of them
  // against its own slab of item panels, and the disjoint partial rows
  // merge exactly under BetterEntry (topk/merge.h).  A worker left
  // without panels leaves its rows at the default item -1, which the
  // merge skips as an empty row.
  std::vector<TopKResult> partial(static_cast<std::size_t>(threads),
                                  TopKResult(q, k));
  ParallelFor(pool, panels, [&](int64_t begin, int64_t end, int chunk) {
    ScorePanels(items, queries, k, static_cast<Index>(begin),
                static_cast<Index>(end),
                &partial[static_cast<std::size_t>(chunk)], 0);
  });
  ParallelFor(pool, q, [&](int64_t begin, int64_t end, int /*chunk*/) {
    std::vector<const TopKEntry*> rows(partial.size());
    for (int64_t r = begin; r < end; ++r) {
      for (std::size_t c = 0; c < partial.size(); ++c) {
        rows[c] = partial[c].Row(static_cast<Index>(r));
      }
      MergeTopKRows(rows, k, k, out->Row(row_offset + static_cast<Index>(r)));
    }
  });
}

}  // namespace mips
