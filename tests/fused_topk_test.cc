// Differential suite for the fused GEMM + top-K scorer
// (topk/fused_topk.h): every row must equal GemmNT + TopKFromScoreBlock
// bit for bit, ids and score bits, under every forced kernel, for depths
// on both sides of the K panel, ragged tile edges, k beyond the item
// count, exact ties, zero and NaN queries, and both threading regimes.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <vector>

#include "common/thread_pool.h"
#include "linalg/gemm.h"
#include "linalg/gemm_kernel.h"
#include "linalg/simd_dispatch.h"
#include "solvers/solver.h"
#include "topk/fused_topk.h"
#include "topk/slab_rows.h"
#include "topk/topk_block.h"
#include "test_util.h"

namespace mips {
namespace {

using ::mips::testing::RandomMatrix;

constexpr Real kNaN = std::numeric_limits<Real>::quiet_NaN();
constexpr Real kInf = std::numeric_limits<Real>::infinity();

std::vector<GemmKernel> SupportedKernels() {
  std::vector<GemmKernel> kernels;
  for (int v = 0; v < kNumGemmKernels; ++v) {
    const GemmKernel kernel = static_cast<GemmKernel>(v);
    if (GemmKernelSupported(kernel)) kernels.push_back(kernel);
  }
  return kernels;
}

std::vector<const Real*> RowPointers(const Matrix& m) {
  std::vector<const Real*> rows(static_cast<std::size_t>(m.rows()));
  for (Index r = 0; r < m.rows(); ++r) {
    rows[static_cast<std::size_t>(r)] = m.Row(r);
  }
  return rows;
}

// The unfused path: a zero-filled score block from GemmNT, then a heap
// per row.  `ids`, when given, names the item rows scored and reports
// them.
TopKResult GemmThenSelect(const Matrix& users, const Matrix& items, Index k,
                          const std::vector<Index>& ids = {}) {
  const Matrix gathered =
      ids.empty() ? Matrix() : GatherRows(ConstRowBlock(items), ids);
  const Matrix& scored = ids.empty() ? items : gathered;
  const Index n = scored.rows();
  Matrix scores(users.rows(), n);
  GemmNT(users.data(), users.rows(), scored.data(), n, users.cols(),
         /*alpha=*/1, /*beta=*/0, scores.data(), n);
  TopKResult result(users.rows(), k);
  TopKFromScoreBlock(scores.data(), users.rows(), n, n, k, /*item_offset=*/0,
                     ids.empty() ? nullptr : ids.data(), &result, 0);
  return result;
}

TopKResult Fused(const PackedItems& items, const Matrix& users, Index k,
                 ThreadPool* pool = nullptr) {
  TopKResult result(users.rows(), k);
  FusedTopK(items, RowPointers(users), k, &result, 0, pool);
  return result;
}

void ExpectBitIdentical(const TopKResult& got, const TopKResult& want,
                        const std::string& context) {
  ASSERT_EQ(got.num_queries(), want.num_queries()) << context;
  ASSERT_EQ(got.k(), want.k()) << context;
  for (Index q = 0; q < got.num_queries(); ++q) {
    for (Index e = 0; e < got.k(); ++e) {
      ASSERT_EQ(got.Row(q)[e].item, want.Row(q)[e].item)
          << context << " row " << q << " entry " << e;
      ASSERT_EQ(std::bit_cast<uint64_t>(got.Row(q)[e].score),
                std::bit_cast<uint64_t>(want.Row(q)[e].score))
          << context << " row " << q << " entry " << e;
    }
  }
}

class FusedTopKTest : public ::testing::Test {
 protected:
  void TearDown() override { ResetGemmKernelForTest(); }
};

// f = 1 and 3 are shallower than any vector; 256 is exactly one K panel,
// 257 and 600 take two and three panels through the scratch tile.  The
// shapes cover n < NR, n % NR != 0, m % MR != 0 and more than one slab of
// queries; k covers 1, both row selectors (either side of
// kSortedRowsMaxK), and k > n, whose rows end in sentinels.
TEST_F(FusedTopKTest, MatchesGemmThenSelectUnderEveryKernel) {
  const std::vector<std::tuple<Index, Index>> shapes = {
      {7, 13}, {9, 45}, {130, 100}};
  for (const GemmKernel kernel : SupportedKernels()) {
    ASSERT_TRUE(ForceGemmKernel(kernel).ok());
    for (const Index f : {1, 3, 50, 256, 257, 600}) {
      for (const auto& [m, n] : shapes) {
        const Matrix users = RandomMatrix(m, f, 100 + f + m);
        const Matrix items = RandomMatrix(n, f, 200 + f + n);
        const PackedItems packed{ConstRowBlock(items)};
        for (const Index k : {Index{1}, Index{10}, kSortedRowsMaxK,
                              kSortedRowsMaxK + 1, n + 3}) {
          ExpectBitIdentical(
              Fused(packed, users, k), GemmThenSelect(users, items, k),
              std::string(ToString(kernel)) + " f=" + std::to_string(f) +
                  " m=" + std::to_string(m) + " n=" + std::to_string(n) +
                  " k=" + std::to_string(k));
        }
      }
    }
  }
}

// Duplicate items tie exactly, also when one copy sits in a tile's
// padded fringe; a zero query ties every item at +0; a -0.0 query keeps
// GemmNT's +0 fold; a NaN query admits nothing and stays all sentinels.
TEST_F(FusedTopKTest, TiesZeroAndNaNQueriesMatch) {
  const Index f = 20;
  const Index n = 37;  // items 32..36 are the last panel's fringe
  Matrix items = RandomMatrix(n, f, 11);
  for (Index c = 0; c < f; ++c) {
    items(20, c) = items(3, c);
    items(35, c) = items(3, c);
    items(7, c) = 0;
  }
  Matrix users = RandomMatrix(6, f, 12);
  for (Index c = 0; c < f; ++c) {
    users(1, c) = 0;
    users(2, c) = -0.0;
  }
  users(3, 5) = kNaN;
  users(4, 0) = kInf;  // scores of +-inf and NaN in one row
  const PackedItems packed{ConstRowBlock(items)};
  for (const GemmKernel kernel : SupportedKernels()) {
    ASSERT_TRUE(ForceGemmKernel(kernel).ok());
    for (const Index k : {Index{3}, Index{10}, Index{70}}) {
      const TopKResult got = Fused(packed, users, k);
      ExpectBitIdentical(got, GemmThenSelect(users, items, k),
                         std::string(ToString(kernel)) +
                             " k=" + std::to_string(k));
      for (Index e = 0; e < k; ++e) EXPECT_EQ(got.Row(3)[e].item, -1);
    }
  }
}

// Above threads * 128 queries the pool splits the queries; below, it
// splits the item panels and merges each row; a call under about a
// million multiply-adds (q = 1 here) runs serially.  All must give the
// serial answer, NaN rows and exact ties included.
TEST_F(FusedTopKTest, ThreadingRegimesMatchSerial) {
  ThreadPool pool(2);
  const Index f = 50;
  const Index n = 1000;
  Matrix items = RandomMatrix(n, f, 21);
  for (Index c = 0; c < f; ++c) items(999, c) = items(0, c);
  const PackedItems packed{ConstRowBlock(items)};
  for (const Index q : {Index{1}, Index{50}, Index{255}, Index{256},
                        Index{300}}) {
    Matrix users = RandomMatrix(q, f, 22 + q);
    users(q / 2, 7) = kNaN;
    for (const Index k : {Index{10}, kSortedRowsMaxK + 1}) {
      const std::string context =
          "q=" + std::to_string(q) + " k=" + std::to_string(k);
      const TopKResult want = GemmThenSelect(users, items, k);
      ExpectBitIdentical(Fused(packed, users, k), want, context + " serial");
      ExpectBitIdentical(Fused(packed, users, k, &pool), want,
                         context + " pooled");
    }
  }
  // More workers than item panels: a worker gets no panels at all.  (The
  // depth keeps the call above the size that runs serially.)
  ThreadPool wide(3);
  const Matrix narrow = RandomMatrix(20, 600, 23);
  const Matrix users = RandomMatrix(100, 600, 24);
  ExpectBitIdentical(Fused(PackedItems(ConstRowBlock(narrow)), users, 25,
                           &wide),
                     GemmThenSelect(users, narrow, 25), "2 panels, 3 workers");
}

// A subset packing reports global ids, and row_offset places the rows
// inside a larger result.
TEST_F(FusedTopKTest, IdMapAndRowOffset) {
  const Index f = 30;
  const Matrix items = RandomMatrix(90, f, 31);
  const Matrix users = RandomMatrix(5, f, 32);
  std::vector<Index> ids(30);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = 1 + 3 * static_cast<Index>(i);
  }
  const PackedItems packed(ConstRowBlock(items), ids);
  ASSERT_EQ(packed.rows(), static_cast<Index>(ids.size()));
  const Index k = 8;
  TopKResult got(9, k);
  FusedTopK(packed, RowPointers(users), k, &got, /*row_offset=*/3, nullptr);
  const TopKResult want = GemmThenSelect(users, items, k, ids);
  for (Index q = 0; q < users.rows(); ++q) {
    for (Index e = 0; e < k; ++e) {
      ASSERT_EQ(got.Row(q + 3)[e].item, want.Row(q)[e].item);
      ASSERT_EQ(got.Row(q + 3)[e].score, want.Row(q)[e].score);
    }
  }
  EXPECT_EQ(PackedItems(ConstRowBlock(items), {}).rows(), 0);
}

// Each row selector alone, fed the admitted candidates of a slab in the
// scorer's order, gives TopKFromRow's rows: exact ties (few distinct
// scores), rows shorter than k, and a row of only -inf scores.
template <typename Rows>
void ExpectSelectorMatchesTopKFromRow(Index k) {
  constexpr Index kRows = 6;
  const Index n = 150;
  Matrix scores = RandomMatrix(kRows, n, 41);
  for (Index j = 0; j < n; ++j) {
    scores(1, j) = static_cast<Real>(j % 7);  // heavy exact ties
    scores(2, j) = -kInf;
  }
  TopKResult got(kRows, k);
  Rows rows(k, kRows);
  rows.Begin(got.Row(0), kRows);
  for (Index r = 0; r < kRows; ++r) {
    Real threshold = -kInf;
    const Index len = r == 3 ? k / 2 : n;  // row 3 stays short of k
    for (Index j = 0; j < len; ++j) {
      if (scores(r, j) >= threshold) {
        threshold = rows.Push(r, {j, scores(r, j)});
      }
    }
  }
  rows.End(kRows);
  for (Index r = 0; r < kRows; ++r) {
    TopKResult want(1, k);
    TopKFromRow(scores.Row(r), r == 3 ? k / 2 : n, k, 0, nullptr,
                want.Row(0));
    for (Index e = 0; e < k; ++e) {
      ASSERT_EQ(got.Row(r)[e].item, want.Row(0)[e].item)
          << "k=" << k << " row " << r << " entry " << e;
      ASSERT_EQ(std::bit_cast<uint64_t>(got.Row(r)[e].score),
                std::bit_cast<uint64_t>(want.Row(0)[e].score))
          << "k=" << k << " row " << r << " entry " << e;
    }
  }
}

TEST(SlabRowsTest, BothSelectorsMatchTopKFromRow) {
  for (const Index k : {Index{1}, Index{10}, Index{100}, Index{200}}) {
    ExpectSelectorMatchesTopKFromRow<SortedSlabRows>(k);
    ExpectSelectorMatchesTopKFromRow<HeapSlabRows>(k);
  }
}

// The admit epilogue is the non-strict, ordered WouldAccept compare in
// every variant: equal scores pass, NaN never does, -inf passes a -inf
// threshold.
TEST(GemmTileAdmitTest, VariantsAgreeWithWouldAccept) {
  alignas(64) Real tile[kGemmMR * kGemmNR];
  const Real thresholds[kGemmMR] = {0.5, -kInf, 2.0, kInf};
  const Real values[] = {0.5, 0.4999, 2.0, -kInf, kInf, kNaN, -0.0, 3.0};
  for (Index i = 0; i < kGemmMR * kGemmNR; ++i) {
    tile[i] = values[i % 8] * ((i / 8) % 2 == 0 ? 1 : -1);
  }
  uint64_t want = 0;
  for (Index i = 0; i < kGemmMR * kGemmNR; ++i) {
    if (tile[i] >= thresholds[i / kGemmNR]) want |= uint64_t{1} << i;
  }
  EXPECT_EQ(GemmTileAdmitPortable(tile, thresholds), want);
  if (GemmKernelSupported(GemmKernel::kAvx2)) {
    EXPECT_EQ(GemmTileAdmitAvx2(tile, thresholds), want);
  }
  if (GemmKernelSupported(GemmKernel::kAvx512)) {
    EXPECT_EQ(GemmTileAdmitAvx512(tile, thresholds), want);
  }
}

}  // namespace
}  // namespace mips
