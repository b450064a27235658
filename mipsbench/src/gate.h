// Correctness gate: sampled answers checked against brute force, outside
// every timed window.
//
// The reference scores each (user, item) pair with the library's
// canonical fold — the blocked GEMM's per-element fma chain over
// kGemmKPanel-deep panels (linalg/gemm_kernel.h) — written out here as
// scalar code, and ranks under BetterEntry (score descending, then id
// ascending).  A row is:
//
//   exact     ids and score bits equal the reference at every rank;
//   ulp       not exact, but rank-aligned scores agree within 1e-9
//             relative and every reported id really scores what was
//             reported.  This is the documented carve-out for index
//             solvers (MAXIMUS scores through its own fold; see
//             catalog/live_catalog.h).  It is accepted only where an index
//             solver may have served the row, and always counted;
//   wrong     anything else.  A wrong row fails the run.

#ifndef MIPSBENCH_GATE_H_
#define MIPSBENCH_GATE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.h"
#include "linalg/matrix.h"
#include "topk/result.h"

namespace mipsbench {

using mips::Index;
using mips::Real;
using mips::TopKEntry;

/// The canonical score of `user` against `item` (both f wide).
Real CanonicalScore(const Real* user, const Real* item, Index f);

/// Brute-force top-k of `user` over the rows of `items`; row r is
/// reported as id `ids ? ids[r] : r`.  Pads with (-1, -inf) when there
/// are fewer than k rows.
std::vector<TopKEntry> BruteForceTopK(const Real* user,
                                      const mips::ConstRowBlock& items,
                                      const Index* ids, Index k);

enum class RowMatch { kExact, kUlp, kWrong };

/// Compares one answered row against the reference row.  `score_of(id)`
/// returns the canonical score of catalog item `id` for this user (NaN
/// for unknown ids).  `allow_ulp` admits the index-solver carve-out.
RowMatch CompareRow(const TopKEntry* got, const std::vector<TopKEntry>& want,
                    bool allow_ulp, const std::function<Real(Index)>& score_of);

/// Counts of checked rows by outcome.
struct GateTally {
  int64_t rows = 0;
  int64_t exact = 0;
  int64_t ulp = 0;
  int64_t wrong = 0;
  void Add(RowMatch match);
  void Merge(const GateTally& other);
  bool ok() const { return rows > 0 && wrong == 0; }
};

}  // namespace mipsbench

#endif  // MIPSBENCH_GATE_H_
