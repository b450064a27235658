#include "gate.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "linalg/gemm.h"

namespace mipsbench {

Real CanonicalScore(const Real* user, const Real* item, Index f) {
  Real c = 0;
  for (Index p = 0; p < f; p += mips::kGemmKPanel) {
    const Index end = std::min<Index>(f, p + mips::kGemmKPanel);
    Real acc = 0;
    for (Index d = p; d < end; ++d) acc = std::fma(user[d], item[d], acc);
    c = std::fma(Real{1}, acc, c);
  }
  return c;
}

std::vector<TopKEntry> BruteForceTopK(const Real* user,
                                      const mips::ConstRowBlock& items,
                                      const Index* ids, Index k) {
  std::vector<TopKEntry> all(static_cast<std::size_t>(items.rows()));
  for (Index r = 0; r < items.rows(); ++r) {
    all[static_cast<std::size_t>(r)] = {
        ids != nullptr ? ids[r] : r,
        CanonicalScore(user, items.Row(r), items.cols())};
  }
  const std::size_t keep = std::min<std::size_t>(all.size(), k);
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(keep),
                    all.end(), mips::BetterEntry);
  all.resize(keep);
  all.resize(static_cast<std::size_t>(k),
             TopKEntry{-1, -std::numeric_limits<Real>::infinity()});
  return all;
}

namespace {

bool SameBits(const TopKEntry& a, const TopKEntry& b) {
  return a.item == b.item &&
         std::memcmp(&a.score, &b.score, sizeof(Real)) == 0;
}

}  // namespace

RowMatch CompareRow(const TopKEntry* got, const std::vector<TopKEntry>& want,
                    bool allow_ulp, const std::function<Real(Index)>& score_of) {
  const std::size_t k = want.size();
  bool exact = true;
  for (std::size_t j = 0; j < k && exact; ++j) {
    exact = SameBits(got[j], want[j]);
  }
  if (exact) return RowMatch::kExact;
  if (!allow_ulp) return RowMatch::kWrong;
  const double top = want.empty() || want[0].item < 0 ? 0 : want[0].score;
  const double tol = 1e-9 * (1 + std::abs(top));
  for (std::size_t j = 0; j < k; ++j) {
    if ((got[j].item < 0) != (want[j].item < 0)) return RowMatch::kWrong;
    if (got[j].item < 0) continue;
    for (std::size_t i = 0; i < j; ++i) {
      if (got[i].item == got[j].item) return RowMatch::kWrong;
    }
    if (!(std::abs(got[j].score - want[j].score) <= tol)) {
      return RowMatch::kWrong;
    }
    if (!(std::abs(score_of(got[j].item) - got[j].score) <= tol)) {
      return RowMatch::kWrong;
    }
  }
  return RowMatch::kUlp;
}

void GateTally::Add(RowMatch match) {
  ++rows;
  switch (match) {
    case RowMatch::kExact: ++exact; break;
    case RowMatch::kUlp: ++ulp; break;
    case RowMatch::kWrong: ++wrong; break;
  }
}

void GateTally::Merge(const GateTally& other) {
  rows += other.rows;
  exact += other.exact;
  ulp += other.ulp;
  wrong += other.wrong;
}

}  // namespace mipsbench
