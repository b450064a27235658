// Tests for the solver interface and the two brute-force solvers: naive
// (reference semantics) and BMM (must agree exactly with naive), including
// a parameterized parity sweep, subset queries, threading, and padding.

#include <gtest/gtest.h>

#include <tuple>

#include "common/thread_pool.h"
#include "solvers/bmm.h"
#include "solvers/naive.h"
#include "test_util.h"

namespace mips {
namespace {

using ::mips::testing::AllUsers;
using ::mips::testing::ExpectSameTopKScores;
using ::mips::testing::ExpectValidTopK;
using ::mips::testing::MakeTestModel;

TEST(GatherRowsTest, GathersInOrder) {
  const Matrix m = testing::RandomMatrix(6, 3, 1);
  const std::vector<Index> ids = {4, 0, 4};
  const Matrix g = GatherRows(ConstRowBlock(m), ids);
  ASSERT_EQ(g.rows(), 3);
  for (Index c = 0; c < 3; ++c) {
    EXPECT_EQ(g(0, c), m(4, c));
    EXPECT_EQ(g(1, c), m(0, c));
    EXPECT_EQ(g(2, c), m(4, c));
  }
}

TEST(NaiveSolverTest, ValidatesInput) {
  NaiveSolver solver;
  const MFModel model = MakeTestModel(10, 10, 4);
  Matrix wrong(10, 5);
  EXPECT_FALSE(solver.Prepare(ConstRowBlock(model.users),
                              ConstRowBlock(wrong)).ok());
  ASSERT_TRUE(solver.Prepare(ConstRowBlock(model.users),
                             ConstRowBlock(model.items)).ok());
  TopKResult out;
  EXPECT_FALSE(solver.TopKForUsers(0, {}, &out).ok());  // k must be > 0
}

TEST(NaiveSolverTest, ResultsAreInternallyConsistent) {
  const MFModel model = MakeTestModel(40, 60, 8);
  NaiveSolver solver;
  ASSERT_TRUE(solver.Prepare(ConstRowBlock(model.users),
                             ConstRowBlock(model.items)).ok());
  TopKResult out;
  ASSERT_TRUE(solver.TopKAll(5, &out).ok());
  ExpectValidTopK(out, AllUsers(40), model);
}

TEST(NaiveSolverTest, TopOneIsArgmax) {
  const MFModel model = MakeTestModel(20, 30, 6);
  NaiveSolver solver;
  ASSERT_TRUE(solver.Prepare(ConstRowBlock(model.users),
                             ConstRowBlock(model.items)).ok());
  TopKResult out;
  ASSERT_TRUE(solver.TopKAll(1, &out).ok());
  for (Index u = 0; u < 20; ++u) {
    Real best = -1e300;
    Index best_item = -1;
    for (Index i = 0; i < 30; ++i) {
      const Real s = Dot(model.users.Row(u), model.items.Row(i), 6);
      if (s > best) {
        best = s;
        best_item = i;
      }
    }
    EXPECT_EQ(out.Row(u)[0].item, best_item);
    EXPECT_NEAR(out.Row(u)[0].score, best, 1e-10);
  }
}

class BmmParityTest
    : public ::testing::TestWithParam<std::tuple<int, int, int, int>> {};

TEST_P(BmmParityTest, MatchesNaive) {
  const auto [users, items, f, k] = GetParam();
  const MFModel model = MakeTestModel(users, items, f,
                                      /*seed=*/static_cast<uint64_t>(
                                          users * 31 + items * 7 + f + k));
  NaiveSolver naive;
  BmmSolver bmm;
  ASSERT_TRUE(naive.Prepare(ConstRowBlock(model.users),
                            ConstRowBlock(model.items)).ok());
  ASSERT_TRUE(bmm.Prepare(ConstRowBlock(model.users),
                          ConstRowBlock(model.items)).ok());
  TopKResult expected;
  TopKResult got;
  ASSERT_TRUE(naive.TopKAll(k, &expected).ok());
  ASSERT_TRUE(bmm.TopKAll(k, &got).ok());
  ExpectSameTopKScores(got, expected);
  ExpectValidTopK(got, AllUsers(users), model);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BmmParityTest,
    ::testing::Values(std::make_tuple(1, 1, 1, 1),
                      std::make_tuple(3, 7, 2, 1),
                      std::make_tuple(50, 20, 10, 5),
                      std::make_tuple(64, 128, 16, 10),
                      std::make_tuple(200, 333, 25, 50),
                      std::make_tuple(17, 1000, 50, 10),
                      std::make_tuple(100, 5, 8, 5)));

TEST(BmmSolverTest, KLargerThanItemsPads) {
  const MFModel model = MakeTestModel(10, 3, 4);
  BmmSolver bmm;
  ASSERT_TRUE(bmm.Prepare(ConstRowBlock(model.users),
                          ConstRowBlock(model.items)).ok());
  TopKResult out;
  ASSERT_TRUE(bmm.TopKAll(5, &out).ok());
  for (Index u = 0; u < 10; ++u) {
    EXPECT_GE(out.Row(u)[0].item, 0);
    EXPECT_GE(out.Row(u)[2].item, 0);
    EXPECT_EQ(out.Row(u)[3].item, -1);
    EXPECT_EQ(out.Row(u)[4].item, -1);
  }
}

TEST(BmmSolverTest, SubsetQueries) {
  const MFModel model = MakeTestModel(60, 40, 8);
  BmmSolver bmm;
  NaiveSolver naive;
  ASSERT_TRUE(bmm.Prepare(ConstRowBlock(model.users),
                          ConstRowBlock(model.items)).ok());
  ASSERT_TRUE(naive.Prepare(ConstRowBlock(model.users),
                            ConstRowBlock(model.items)).ok());
  const std::vector<Index> subset = {3, 17, 17, 59, 0};
  TopKResult got;
  TopKResult expected;
  ASSERT_TRUE(bmm.TopKForUsers(4, subset, &got).ok());
  ASSERT_TRUE(naive.TopKForUsers(4, subset, &expected).ok());
  ExpectSameTopKScores(got, expected);
  ExpectValidTopK(got, subset, model);
}

TEST(BmmSolverTest, ThreadedMatchesSingleThreaded) {
  const MFModel model = MakeTestModel(128, 90, 12);
  BmmSolver single;
  BmmSolver threaded;
  ThreadPool pool(4);
  threaded.set_thread_pool(&pool);
  ASSERT_TRUE(single.Prepare(ConstRowBlock(model.users),
                             ConstRowBlock(model.items)).ok());
  ASSERT_TRUE(threaded.Prepare(ConstRowBlock(model.users),
                               ConstRowBlock(model.items)).ok());
  TopKResult a;
  TopKResult b;
  ASSERT_TRUE(single.TopKAll(7, &a).ok());
  ASSERT_TRUE(threaded.TopKAll(7, &b).ok());
  ExpectSameTopKScores(a, b, 1e-12);
  // Identical accumulation per user means identical item choices too.
  for (Index u = 0; u < 128; ++u) {
    for (Index e = 0; e < 7; ++e) {
      EXPECT_EQ(a.Row(u)[e].item, b.Row(u)[e].item);
    }
  }
}

TEST(BmmSolverTest, QueryBeforePrepareFails) {
  BmmSolver bmm;
  TopKResult out;
  EXPECT_EQ(bmm.TopKForUsers(1, {}, &out).code(),
            StatusCode::kFailedPrecondition);
}

TEST(BmmSolverTest, EmptyQuerySet) {
  const MFModel model = MakeTestModel(10, 10, 4);
  BmmSolver bmm;
  ASSERT_TRUE(bmm.Prepare(ConstRowBlock(model.users),
                          ConstRowBlock(model.items)).ok());
  TopKResult out;
  ASSERT_TRUE(bmm.TopKForUsers(3, {}, &out).ok());
  EXPECT_EQ(out.num_queries(), 0);
}

TEST(SolverInterfaceTest, NamesAndBatchingFlags) {
  NaiveSolver naive;
  BmmSolver bmm;
  EXPECT_EQ(naive.name(), "naive");
  EXPECT_EQ(bmm.name(), "bmm");
  EXPECT_FALSE(naive.batches_users());
  EXPECT_TRUE(bmm.batches_users());
}

}  // namespace
}  // namespace mips
