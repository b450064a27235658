// Tests for DynamicMaximus (user churn + periodic re-clustering — the
// paper's Section III-E future work) and the FEXIPRO bound-cascade lesion
// switches.

#include <gtest/gtest.h>

#include "core/dynamic_maximus.h"
#include "solvers/bmm.h"
#include "solvers/fexipro/fexipro.h"
#include "test_util.h"
#include "topk/topk_heap.h"

namespace mips {
namespace {

using ::mips::testing::AllUsers;
using ::mips::testing::ExpectSameTopKScores;
using ::mips::testing::MakeTestModel;

// Reference top-K for one user by direct scan.
std::vector<TopKEntry> DirectTopK(const Real* user, const Matrix& items,
                                  Index k) {
  TopKHeap heap(k);
  for (Index i = 0; i < items.rows(); ++i) {
    heap.Push(i, Dot(user, items.Row(i), items.cols()));
  }
  std::vector<TopKEntry> out(static_cast<std::size_t>(k));
  heap.ExtractDescending(out.data());
  return out;
}

TEST(DynamicMaximusTest, InitializeValidates) {
  DynamicMaximus dynamic;
  Matrix empty;
  const MFModel model = MakeTestModel(10, 10, 4, 1);
  EXPECT_FALSE(dynamic.Initialize(ConstRowBlock(empty),
                                  ConstRowBlock(model.items)).ok());
  EXPECT_FALSE(dynamic.AddUser(model.users.Row(0)).ok());
  TopKEntry row[1];
  EXPECT_FALSE(dynamic.TopKForUser(0, 1, row).ok());
}

TEST(DynamicMaximusTest, ServesInitialUsersExactly) {
  const MFModel model = MakeTestModel(200, 150, 8, 2, 0.6, 0.3);
  DynamicMaximus dynamic;
  ASSERT_TRUE(dynamic.Initialize(ConstRowBlock(model.users),
                                 ConstRowBlock(model.items)).ok());
  EXPECT_EQ(dynamic.num_users(), 200);
  EXPECT_EQ(dynamic.pending_users(), 0);
  EXPECT_EQ(dynamic.recluster_rounds(), 0);

  BmmSolver reference;
  ASSERT_TRUE(reference.Prepare(ConstRowBlock(model.users),
                                ConstRowBlock(model.items)).ok());
  TopKResult expected;
  ASSERT_TRUE(reference.TopKAll(5, &expected).ok());
  TopKResult got;
  ASSERT_TRUE(dynamic.TopKAll(5, &got).ok());
  ExpectSameTopKScores(got, expected, 1e-7);
}

TEST(DynamicMaximusTest, AddedUsersServedExactlyBeforeAndAfterRecluster) {
  const MFModel model = MakeTestModel(150, 120, 6, 3, 0.6, 0.3);
  const MFModel extra = MakeTestModel(100, 120, 6, 4, 0.6, 1.0);
  DynamicMaximusOptions options;
  options.recluster_churn_fraction = 0.25;
  DynamicMaximus dynamic(options);
  ASSERT_TRUE(dynamic.Initialize(ConstRowBlock(model.users),
                                 ConstRowBlock(model.items)).ok());
  std::vector<TopKEntry> row(4);
  for (Index u = 0; u < 100; ++u) {
    auto id = dynamic.AddUser(extra.users.Row(u));
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, 150 + u);
    // Every user (old and new) must stay exact at every point in the
    // churn lifecycle.
    ASSERT_TRUE(dynamic.TopKForUser(*id, 4, row.data()).ok());
    const auto expected = DirectTopK(extra.users.Row(u), model.items, 4);
    for (Index e = 0; e < 4; ++e) {
      ASSERT_NEAR(row[static_cast<std::size_t>(e)].score,
                  expected[static_cast<std::size_t>(e)].score, 1e-7)
          << "new user " << u << " entry " << e;
    }
  }
  // 100 added / 150 initial with 25% churn threshold: re-clustering must
  // have happened at least twice.
  EXPECT_GE(dynamic.recluster_rounds(), 2);
  EXPECT_EQ(dynamic.num_users(), 250);
  // After enough churn, most users are indexed (pending below threshold).
  EXPECT_LE(dynamic.pending_users(),
            static_cast<Index>(0.25 * 250) + 1);
}

TEST(DynamicMaximusTest, ReclusterRestoresPruning) {
  // New users from a *different* direction cluster: before re-clustering
  // they pay the widened dynamic bound; after re-clustering they become
  // first-class members and theta_b re-tightens.
  const MFModel model = MakeTestModel(300, 400, 8, 5, /*norm_sigma=*/1.0,
                                      /*dispersion=*/0.2);
  DynamicMaximusOptions options;
  options.recluster_churn_fraction = 0;  // manual control
  DynamicMaximus dynamic(options);
  ASSERT_TRUE(dynamic.Initialize(ConstRowBlock(model.users),
                                 ConstRowBlock(model.items)).ok());
  const MFModel churn = MakeTestModel(150, 400, 8, 6, 1.0, 0.2);
  for (Index u = 0; u < 150; ++u) {
    ASSERT_TRUE(dynamic.AddUser(churn.users.Row(u)).ok());
  }
  EXPECT_EQ(dynamic.pending_users(), 150);
  const int rounds_before = dynamic.recluster_rounds();
  ASSERT_TRUE(dynamic.Recluster().ok());
  EXPECT_EQ(dynamic.recluster_rounds(), rounds_before + 1);
  EXPECT_EQ(dynamic.pending_users(), 0);
  // Still exact for everyone after the rebuild.
  TopKResult got;
  ASSERT_TRUE(dynamic.TopKAll(3, &got).ok());
  for (Index u = 0; u < 450; ++u) {
    const Real* vec = u < 300 ? model.users.Row(u) : churn.users.Row(u - 300);
    const auto expected = DirectTopK(vec, model.items, 3);
    for (Index e = 0; e < 3; ++e) {
      ASSERT_NEAR(got.Row(u)[e].score,
                  expected[static_cast<std::size_t>(e)].score, 1e-7)
          << "user " << u;
    }
  }
}

TEST(DynamicMaximusTest, PendingUsersServedAsOneBatch) {
  // TopKAll and a mixed-id TopKForUsers serve their pending users as one
  // new-user batch each; every row must equal the one-user answer bit for
  // bit and the direct scan within rounding.
  const MFModel model = MakeTestModel(200, 300, 8, 9, 0.6, 0.3);
  const MFModel churn = MakeTestModel(40, 300, 8, 10, 0.6, 1.0);
  DynamicMaximusOptions options;
  options.recluster_churn_fraction = 0;  // keep every added user pending
  DynamicMaximus dynamic(options);
  ASSERT_TRUE(dynamic.Initialize(ConstRowBlock(model.users),
                                 ConstRowBlock(model.items)).ok());
  for (Index u = 0; u < 40; ++u) {
    ASSERT_TRUE(dynamic.AddUser(churn.users.Row(u)).ok());
  }
  ASSERT_EQ(dynamic.pending_users(), 40);

  const Index k = 4;
  TopKResult all;
  ASSERT_TRUE(dynamic.TopKAll(k, &all).ok());
  std::vector<TopKEntry> row(static_cast<std::size_t>(k));
  for (Index u = 0; u < 240; ++u) {
    ASSERT_TRUE(dynamic.TopKForUser(u, k, row.data()).ok());
    const Real* vec = u < 200 ? model.users.Row(u) : churn.users.Row(u - 200);
    const auto expected = DirectTopK(vec, model.items, k);
    for (Index e = 0; e < k; ++e) {
      EXPECT_EQ(all.Row(u)[e].item, row[static_cast<std::size_t>(e)].item)
          << "user " << u << " entry " << e;
      EXPECT_EQ(all.Row(u)[e].score, row[static_cast<std::size_t>(e)].score)
          << "user " << u << " entry " << e;
      EXPECT_NEAR(all.Row(u)[e].score,
                  expected[static_cast<std::size_t>(e)].score, 1e-9)
          << "user " << u << " entry " << e;
    }
  }

  const std::vector<Index> mixed = {239, 3, 205, 3, 0, 220};
  TopKResult got;
  ASSERT_TRUE(dynamic.TopKForUsers(k, mixed, &got).ok());
  for (std::size_t r = 0; r < mixed.size(); ++r) {
    for (Index e = 0; e < k; ++e) {
      EXPECT_EQ(got.Row(static_cast<Index>(r))[e].item,
                all.Row(mixed[r])[e].item);
      EXPECT_EQ(got.Row(static_cast<Index>(r))[e].score,
                all.Row(mixed[r])[e].score);
    }
  }
}

TEST(DynamicMaximusTest, OutOfRangeUserRejected) {
  const MFModel model = MakeTestModel(20, 20, 4, 7);
  DynamicMaximus dynamic;
  ASSERT_TRUE(dynamic.Initialize(ConstRowBlock(model.users),
                                 ConstRowBlock(model.items)).ok());
  TopKEntry row[2];
  EXPECT_EQ(dynamic.TopKForUser(20, 2, row).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(dynamic.TopKForUser(-1, 2, row).code(), StatusCode::kOutOfRange);
}

TEST(DynamicMaximusTest, StorageGrowthKeepsServingExact) {
  // Start tiny so AddUser forces capacity doubling + rebuild.
  const MFModel model = MakeTestModel(20, 60, 5, 8);
  const MFModel extra = MakeTestModel(200, 60, 5, 9);
  DynamicMaximusOptions options;
  options.recluster_churn_fraction = 0;  // growth-triggered rebuilds only
  DynamicMaximus dynamic(options);
  ASSERT_TRUE(dynamic.Initialize(ConstRowBlock(model.users),
                                 ConstRowBlock(model.items)).ok());
  std::vector<TopKEntry> row(3);
  for (Index u = 0; u < 200; ++u) {
    auto id = dynamic.AddUser(extra.users.Row(u));
    ASSERT_TRUE(id.ok());
  }
  EXPECT_EQ(dynamic.num_users(), 220);
  EXPECT_GT(dynamic.recluster_rounds(), 0);  // growth forced rebuilds
  for (Index u = 0; u < 200; u += 37) {
    ASSERT_TRUE(dynamic.TopKForUser(20 + u, 3, row.data()).ok());
    const auto expected = DirectTopK(extra.users.Row(u), model.items, 3);
    for (Index e = 0; e < 3; ++e) {
      EXPECT_NEAR(row[static_cast<std::size_t>(e)].score,
                  expected[static_cast<std::size_t>(e)].score, 1e-7);
    }
  }
}

// ------------------------------------------- FEXIPRO cascade lesions

class FexiproLesionTest
    : public ::testing::TestWithParam<std::tuple<bool, bool, bool>> {};

TEST_P(FexiproLesionTest, ExactUnderAnyCascadeSubset) {
  const auto [use_reduction, use_int, use_svd] = GetParam();
  const MFModel model = MakeTestModel(60, 250, 12, 10, 0.8);
  FexiproOptions options;
  options.use_reduction = use_reduction;
  options.use_int_bound = use_int;
  options.use_svd_bound = use_svd;
  FexiproSolver fexipro(options);
  BmmSolver bmm;
  ASSERT_TRUE(fexipro.Prepare(ConstRowBlock(model.users),
                              ConstRowBlock(model.items)).ok());
  ASSERT_TRUE(bmm.Prepare(ConstRowBlock(model.users),
                          ConstRowBlock(model.items)).ok());
  TopKResult got;
  TopKResult expected;
  ASSERT_TRUE(fexipro.TopKAll(5, &got).ok());
  ASSERT_TRUE(bmm.TopKAll(5, &expected).ok());
  ExpectSameTopKScores(got, expected, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(AllSubsets, FexiproLesionTest,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Bool()));

TEST(FexiproLesionTest, BoundsReduceExactScoring) {
  // With both bounds off, every surviving length-test item is scored
  // exactly; with bounds on, strictly fewer are.
  const MFModel model = MakeTestModel(80, 1500, 16, 11, /*norm_sigma=*/0.3);
  FexiproOptions off;
  off.use_int_bound = false;
  off.use_svd_bound = false;
  FexiproOptions on;
  FexiproSolver lesioned(off);
  FexiproSolver full(on);
  ASSERT_TRUE(lesioned.Prepare(ConstRowBlock(model.users),
                               ConstRowBlock(model.items)).ok());
  ASSERT_TRUE(full.Prepare(ConstRowBlock(model.users),
                           ConstRowBlock(model.items)).ok());
  TopKResult out;
  ASSERT_TRUE(lesioned.TopKAll(1, &out).ok());
  const double exact_without = lesioned.last_exact_fraction();
  ASSERT_TRUE(full.TopKAll(1, &out).ok());
  const double exact_with = full.last_exact_fraction();
  EXPECT_LT(exact_with, exact_without);
}

}  // namespace
}  // namespace mips
