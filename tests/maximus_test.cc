// Tests for MAXIMUS: the Koenigstein bound as a property test, index
// construction invariants, exactness against brute force across a
// parameter sweep (clusters, blocking, K, clustering flavor), the item
// blocking lesion, new users (one at a time and in batches), and
// threading.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <tuple>

#include "common/thread_pool.h"
#include "core/cbound.h"
#include "core/maximus.h"
#include "solvers/bmm.h"
#include "test_util.h"
#include "topk/topk_heap.h"

namespace mips {
namespace {

using ::mips::testing::AllUsers;
using ::mips::testing::ExpectSameTopKScores;
using ::mips::testing::ExpectValidTopK;
using ::mips::testing::MakeTestModel;

// ----------------------------------------------------------- The bound

TEST(CBoundTest, AngleFromCosineClamps) {
  EXPECT_DOUBLE_EQ(AngleFromCosine(1.5), 0.0);
  EXPECT_DOUBLE_EQ(AngleFromCosine(-1.5), M_PI);
  EXPECT_NEAR(AngleFromCosine(0.0), M_PI / 2, 1e-12);
}

TEST(CBoundTest, WideConeDegeneratesToNorm) {
  // theta_b >= theta_ic: the bound is just the item norm.
  EXPECT_DOUBLE_EQ(CBound(2.5, 0.3, 0.3), 2.5);
  EXPECT_DOUBLE_EQ(CBound(2.5, 0.3, 1.0), 2.5);
}

TEST(CBoundTest, TightConeScalesByCos) {
  EXPECT_NEAR(CBound(2.0, 1.0, 0.25), 2.0 * std::cos(0.75), 1e-12);
}

TEST(CBoundTest, MonotoneInTheta) {
  // Wider cones can only loosen the bound.
  Real prev = 0;
  for (Real theta_b : {0.0, 0.2, 0.4, 0.8, 1.5, 3.0}) {
    const Real b = CBound(1.0, 1.2, theta_b);
    EXPECT_GE(b, prev - 1e-12);
    prev = b;
  }
}

// Property: CBound is Lipschitz in theta_b with constant ||i||.  This is
// what makes the dynamic-user walk exact: a user outside the cluster cone
// by delta can inflate every bound by at most max_norm * delta, so adding
// that slack to the sorted list keeps termination conservative
// (MaximusSolver::TopKForNewUsers).
TEST(CBoundTest, LipschitzInTheta) {
  Rng rng(4);
  for (int trial = 0; trial < 5000; ++trial) {
    const Real norm = rng.Uniform(0.0, 5.0);
    const Real theta_ic = rng.Uniform(0.0, M_PI);
    const Real theta_b = rng.Uniform(0.0, M_PI);
    const Real delta = rng.Uniform(0.0, M_PI - 0.0);
    const Real widened = std::min(theta_b + delta, Real{M_PI});
    EXPECT_LE(CBound(norm, theta_ic, widened),
              CBound(norm, theta_ic, theta_b) + norm * delta + 1e-12)
        << "norm=" << norm << " theta_ic=" << theta_ic
        << " theta_b=" << theta_b << " delta=" << delta;
  }
}

// Property (Equation 2): for random user/item/centroid triples, the
// normalized rating never exceeds the bound computed from the angles.
TEST(CBoundTest, UpperBoundsNormalizedRating) {
  Rng rng(3);
  const Index f = 12;
  std::vector<Real> u(f);
  std::vector<Real> i(f);
  std::vector<Real> c(f);
  for (int trial = 0; trial < 2000; ++trial) {
    for (Index d = 0; d < f; ++d) {
      u[static_cast<std::size_t>(d)] = rng.Normal();
      i[static_cast<std::size_t>(d)] = rng.Normal(0, 2);
      c[static_cast<std::size_t>(d)] = rng.Normal();
    }
    const Real norm_u = Nrm2(u.data(), f);
    const Real norm_i = Nrm2(i.data(), f);
    const Real theta_ic =
        AngleFromCosine(CosineSimilarity(i.data(), c.data(), f));
    const Real theta_uc =
        AngleFromCosine(CosineSimilarity(u.data(), c.data(), f));
    const Real r_star = Dot(u.data(), i.data(), f) / norm_u;
    EXPECT_LE(r_star, CBound(norm_i, theta_ic, theta_uc) + 1e-9)
        << "trial " << trial;
    // The cluster-level bound with any theta_b >= theta_uc also holds.
    EXPECT_LE(r_star, CBound(norm_i, theta_ic, theta_uc + 0.3) + 1e-9);
  }
}

// --------------------------------------------------------- Construction

TEST(MaximusTest, PrepareBuildsClustersAndTimers) {
  const MFModel model = MakeTestModel(300, 200, 10, 5);
  MaximusOptions options;
  options.num_clusters = 6;
  MaximusSolver maximus(options);
  ASSERT_TRUE(maximus.Prepare(ConstRowBlock(model.users),
                              ConstRowBlock(model.items)).ok());
  EXPECT_EQ(maximus.clustering().centroids.rows(), 6);
  EXPECT_EQ(maximus.theta_b().size(), 6u);
  for (Real theta : maximus.theta_b()) {
    EXPECT_GE(theta, 0.0);
    EXPECT_LE(theta, M_PI + 1e-9);
  }
  EXPECT_GT(maximus.stage_timer().Get("clustering"), 0.0);
  EXPECT_GT(maximus.stage_timer().Get("construction"), 0.0);
}

TEST(MaximusTest, ThetaBCoversAllMembers) {
  const MFModel model = MakeTestModel(200, 50, 8, 7);
  MaximusSolver maximus;
  ASSERT_TRUE(maximus.Prepare(ConstRowBlock(model.users),
                              ConstRowBlock(model.items)).ok());
  const Clustering& clustering = maximus.clustering();
  for (Index u = 0; u < 200; ++u) {
    const Index j = clustering.assignment[static_cast<std::size_t>(u)];
    const Real theta = AngleFromCosine(CosineSimilarity(
        model.users.Row(u), clustering.centroids.Row(j), 8));
    EXPECT_LE(theta, maximus.theta_b()[static_cast<std::size_t>(j)] + 1e-9);
  }
}

TEST(MaximusTest, RejectsBadInput) {
  MaximusSolver maximus;
  Matrix empty;
  const MFModel model = MakeTestModel(10, 10, 4, 9);
  EXPECT_FALSE(maximus.Prepare(ConstRowBlock(empty),
                               ConstRowBlock(model.items)).ok());
  TopKResult out;
  EXPECT_EQ(maximus.TopKForUsers(1, {}, &out).code(),
            StatusCode::kFailedPrecondition);
}

// ------------------------------------------------------------ Exactness

class MaximusExactnessTest
    : public ::testing::TestWithParam<
          std::tuple<int, int, int, bool, double>> {};

TEST_P(MaximusExactnessTest, MatchesBruteForce) {
  const auto [k, clusters, block_size, spherical, dispersion] = GetParam();
  const MFModel model =
      MakeTestModel(150, 250, 12, /*seed=*/31, /*norm_sigma=*/0.6,
                    /*dispersion=*/dispersion);
  MaximusOptions options;
  options.num_clusters = clusters;
  options.block_size = block_size;
  options.spherical_clustering = spherical;
  MaximusSolver maximus(options);
  BmmSolver bmm;
  ASSERT_TRUE(maximus.Prepare(ConstRowBlock(model.users),
                              ConstRowBlock(model.items)).ok());
  ASSERT_TRUE(bmm.Prepare(ConstRowBlock(model.users),
                          ConstRowBlock(model.items)).ok());
  TopKResult got;
  TopKResult expected;
  ASSERT_TRUE(maximus.TopKAll(k, &got).ok());
  ASSERT_TRUE(bmm.TopKAll(k, &expected).ok());
  ExpectSameTopKScores(got, expected, 1e-7);
  ExpectValidTopK(got, AllUsers(150), model, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MaximusExactnessTest,
    ::testing::Values(
        std::make_tuple(1, 8, 64, false, 0.3),
        std::make_tuple(5, 8, 64, false, 0.3),
        std::make_tuple(10, 8, 0, false, 0.3),     // blocking disabled
        std::make_tuple(5, 1, 32, false, 0.5),     // single cluster
        std::make_tuple(5, 16, 16, false, 0.5),    // many clusters
        std::make_tuple(5, 8, 1024, false, 0.5),   // block > items
        std::make_tuple(5, 8, 64, true, 0.3),      // spherical clustering
        std::make_tuple(50, 4, 64, false, 1.0)));  // large K, diffuse users

TEST(MaximusTest, VisitStatisticsBounded) {
  const MFModel model =
      MakeTestModel(200, 500, 10, /*seed=*/37, /*norm_sigma=*/0.9,
                    /*dispersion=*/0.2);
  MaximusSolver maximus;
  ASSERT_TRUE(maximus.Prepare(ConstRowBlock(model.users),
                              ConstRowBlock(model.items)).ok());
  TopKResult out;
  ASSERT_TRUE(maximus.TopKAll(1, &out).ok());
  EXPECT_GE(maximus.mean_items_visited(), 1.0);
  EXPECT_LE(maximus.mean_items_visited(), 500.0);
  // Tight user clusters + skewed norms: pruning must be substantial.
  EXPECT_LT(maximus.mean_items_visited(), 250.0);
}

TEST(MaximusTest, LesionItemBlockingSameResults) {
  const MFModel model = MakeTestModel(120, 300, 10, 41, 0.7, 0.4);
  MaximusOptions with_blocking;
  with_blocking.block_size = 128;
  MaximusOptions without_blocking;
  without_blocking.block_size = 0;
  MaximusSolver a(with_blocking);
  MaximusSolver b(without_blocking);
  ASSERT_TRUE(a.Prepare(ConstRowBlock(model.users),
                        ConstRowBlock(model.items)).ok());
  ASSERT_TRUE(b.Prepare(ConstRowBlock(model.users),
                        ConstRowBlock(model.items)).ok());
  TopKResult ra;
  TopKResult rb;
  ASSERT_TRUE(a.TopKAll(5, &ra).ok());
  ASSERT_TRUE(b.TopKAll(5, &rb).ok());
  ExpectSameTopKScores(ra, rb, 1e-7);
}

TEST(MaximusTest, SubsetQueriesExact) {
  const MFModel model = MakeTestModel(90, 120, 8, 43);
  MaximusSolver maximus;
  BmmSolver bmm;
  ASSERT_TRUE(maximus.Prepare(ConstRowBlock(model.users),
                              ConstRowBlock(model.items)).ok());
  ASSERT_TRUE(bmm.Prepare(ConstRowBlock(model.users),
                          ConstRowBlock(model.items)).ok());
  const std::vector<Index> subset = {88, 3, 41, 3, 0};
  TopKResult got;
  TopKResult expected;
  ASSERT_TRUE(maximus.TopKForUsers(3, subset, &got).ok());
  ASSERT_TRUE(bmm.TopKForUsers(3, subset, &expected).ok());
  ExpectSameTopKScores(got, expected, 1e-7);
}

TEST(MaximusTest, ThreadedMatchesSingleThreaded) {
  const MFModel model = MakeTestModel(160, 200, 10, 47);
  MaximusSolver single;
  MaximusSolver threaded;
  ThreadPool pool(4);
  threaded.set_thread_pool(&pool);
  ASSERT_TRUE(single.Prepare(ConstRowBlock(model.users),
                             ConstRowBlock(model.items)).ok());
  ASSERT_TRUE(threaded.Prepare(ConstRowBlock(model.users),
                               ConstRowBlock(model.items)).ok());
  TopKResult a;
  TopKResult b;
  ASSERT_TRUE(single.TopKAll(5, &a).ok());
  ASSERT_TRUE(threaded.TopKAll(5, &b).ok());
  ExpectSameTopKScores(a, b, 1e-9);
}

TEST(MaximusTest, KLargerThanItemsPads) {
  const MFModel model = MakeTestModel(12, 4, 6, 53);
  MaximusSolver maximus;
  ASSERT_TRUE(maximus.Prepare(ConstRowBlock(model.users),
                              ConstRowBlock(model.items)).ok());
  TopKResult out;
  ASSERT_TRUE(maximus.TopKAll(6, &out).ok());
  for (Index u = 0; u < 12; ++u) {
    EXPECT_GE(out.Row(u)[3].item, 0);
    EXPECT_EQ(out.Row(u)[4].item, -1);
  }
}

TEST(MaximusTest, ZeroNormUserGetsZeroScores) {
  MFModel model = MakeTestModel(20, 30, 5, 59);
  for (Index c = 0; c < 5; ++c) model.users(4, c) = 0;
  MaximusSolver maximus;
  ASSERT_TRUE(maximus.Prepare(ConstRowBlock(model.users),
                              ConstRowBlock(model.items)).ok());
  TopKResult out;
  ASSERT_TRUE(maximus.TopKAll(3, &out).ok());
  for (Index e = 0; e < 3; ++e) {
    EXPECT_EQ(out.Row(4)[e].score, 0.0);
  }
}

// --------------------------------------------------------- Dynamic users

TEST(MaximusTest, DynamicUserQueryIsExact) {
  // Prepare on 200 users, then query 50 *new* users drawn from the same
  // distribution (plus a few adversarially far-from-centroid ones).
  const MFModel model = MakeTestModel(200, 300, 10, 61, 0.6, 0.4);
  const MFModel extra = MakeTestModel(50, 300, 10, 62, 0.6, 1.5);
  MaximusSolver maximus;
  ASSERT_TRUE(maximus.Prepare(ConstRowBlock(model.users),
                              ConstRowBlock(model.items)).ok());
  const Index k = 5;
  std::vector<TopKEntry> row(static_cast<std::size_t>(k));
  for (Index u = 0; u < 50; ++u) {
    ASSERT_TRUE(maximus.QueryDynamicUser(extra.users.Row(u), k, row.data()).ok());
    // Reference: direct scan.
    TopKHeap heap(k);
    for (Index i = 0; i < 300; ++i) {
      heap.Push(i, Dot(extra.users.Row(u), model.items.Row(i), 10));
    }
    std::vector<TopKEntry> expected(static_cast<std::size_t>(k));
    heap.ExtractDescending(expected.data());
    for (Index e = 0; e < k; ++e) {
      EXPECT_NEAR(row[static_cast<std::size_t>(e)].score,
                  expected[static_cast<std::size_t>(e)].score, 1e-7)
          << "user " << u << " entry " << e;
    }
  }
}

// Brute-force top-k of each row of `queries` against every item: the
// TopKHeap reference order (score descending, then item id ascending).
TopKResult BruteForceTopK(const Matrix& queries, const Matrix& items,
                          Index k) {
  TopKResult out(queries.rows(), k);
  for (Index r = 0; r < queries.rows(); ++r) {
    TopKHeap heap(k);
    for (Index i = 0; i < items.rows(); ++i) {
      heap.Push(i, Dot(queries.Row(r), items.Row(i), items.cols()));
    }
    heap.ExtractDescending(out.Row(r));
  }
  return out;
}

// Ids exact, scores within `tol` (sentinel -inf tails equal).
void ExpectIdsExactScoresNear(const TopKResult& got, const TopKResult& want,
                              Real tol, const std::string& label) {
  ASSERT_EQ(got.num_queries(), want.num_queries()) << label;
  ASSERT_EQ(got.k(), want.k()) << label;
  for (Index r = 0; r < got.num_queries(); ++r) {
    for (Index e = 0; e < got.k(); ++e) {
      const TopKEntry& g = got.Row(r)[e];
      const TopKEntry& w = want.Row(r)[e];
      EXPECT_EQ(g.item, w.item) << label << " row " << r << " entry " << e;
      if (std::isinf(w.score)) {
        EXPECT_EQ(g.score, w.score) << label << " row " << r;
      } else {
        EXPECT_NEAR(g.score, w.score, tol)
            << label << " row " << r << " entry " << e;
      }
    }
  }
}

void ExpectSameBits(const TopKEntry* got, const TopKEntry* want, Index k,
                    const std::string& label) {
  for (Index e = 0; e < k; ++e) {
    EXPECT_EQ(got[e].item, want[e].item) << label << " entry " << e;
    EXPECT_EQ(std::memcmp(&got[e].score, &want[e].score, sizeof(Real)), 0)
        << label << " entry " << e << ": " << got[e].score << " vs "
        << want[e].score;
  }
}

// A model whose item set holds exact duplicates of a boosted item (so the
// top of many rows is a tie the id order must break), and a batch of new
// users mixing in-distribution rows, negated members (far outside every
// theta_b cone, so their slack is large) and one zero vector.
struct NewUserFixture {
  MFModel model;
  Matrix queries;
};

NewUserFixture MakeNewUserFixture(Index num_items = 240) {
  NewUserFixture fx{MakeTestModel(160, num_items, 12, 71, 0.6, 0.4), {}};
  const Index f = fx.model.num_factors();
  for (Index c = 0; c < f; ++c) fx.model.items(3, c) *= 4;
  for (const Index dup : {Index{11}, Index{150}}) {
    std::memcpy(fx.model.items.Row(dup), fx.model.items.Row(3),
                static_cast<std::size_t>(f) * sizeof(Real));
  }
  const MFModel extra = MakeTestModel(30, num_items, f, 72, 0.6, 0.4);
  fx.queries.Resize(41, f);
  for (Index r = 0; r < 30; ++r) {
    std::memcpy(fx.queries.Row(r), extra.users.Row(r),
                static_cast<std::size_t>(f) * sizeof(Real));
  }
  for (Index r = 30; r < 40; ++r) {
    for (Index c = 0; c < f; ++c) {
      fx.queries(r, c) = -fx.model.users(r * 3, c);
    }
  }
  // Row 40 stays the zero vector.
  return fx;
}

TEST(MaximusTest, NewUserBatchMatchesBruteForceAndSingleRows) {
  const NewUserFixture fx = MakeNewUserFixture();
  const Index n = fx.model.num_items();
  for (const Index block_size : {Index{-1}, Index{16}, Index{0}}) {
    MaximusOptions options;
    options.block_size = block_size;
    MaximusSolver maximus(options);
    ASSERT_TRUE(maximus.Prepare(ConstRowBlock(fx.model.users),
                                ConstRowBlock(fx.model.items)).ok());
    for (const Index k : {Index{1}, Index{3}, Index{7}, n + 3}) {
      const std::string label = "block_size=" + std::to_string(block_size) +
                                " k=" + std::to_string(k);
      TopKResult batch;
      ASSERT_TRUE(maximus.TopKForNewUsers(fx.queries.data(),
                                          fx.queries.rows(), k, &batch)
                      .ok());
      ExpectIdsExactScoresNear(batch,
                               BruteForceTopK(fx.queries, fx.model.items, k),
                               1e-9, label);
      std::vector<TopKEntry> alone(static_cast<std::size_t>(k));
      for (Index r = 0; r < fx.queries.rows(); ++r) {
        ASSERT_TRUE(
            maximus.QueryDynamicUser(fx.queries.Row(r), k, alone.data())
                .ok());
        ExpectSameBits(batch.Row(r), alone.data(), k,
                       label + " row " + std::to_string(r));
      }
    }
  }
}

TEST(MaximusTest, NewUserZeroVectorReturnsLowestIds) {
  const NewUserFixture fx = MakeNewUserFixture();
  MaximusSolver maximus;
  ASSERT_TRUE(maximus.Prepare(ConstRowBlock(fx.model.users),
                              ConstRowBlock(fx.model.items)).ok());
  TopKResult out;
  ASSERT_TRUE(
      maximus.TopKForNewUsers(fx.queries.Row(40), 1, 4, &out).ok());
  for (Index e = 0; e < 4; ++e) {
    EXPECT_EQ(out.Row(0)[e].item, e);
    EXPECT_EQ(out.Row(0)[e].score, 0.0);
  }
  // Every item scores 0, so the walk cannot stop early.
  EXPECT_EQ(maximus.mean_items_visited(),
            static_cast<double>(fx.model.num_items()));
}

TEST(MaximusTest, NewUserBatchPooledMatchesSerialBitForBit) {
  // 400 rows x a 256-item first segment x 12 factors is past the
  // serial-call threshold, so the pooled solver splits the rows.
  const NewUserFixture fx = MakeNewUserFixture(/*num_items=*/700);
  const Matrix queries = ::mips::testing::RandomMatrix(400, 12, 73);
  MaximusOptions options;
  options.block_size = 256;
  MaximusSolver serial(options);
  MaximusSolver pooled(options);
  ThreadPool pool(4);
  pooled.set_thread_pool(&pool);
  ASSERT_TRUE(serial.Prepare(ConstRowBlock(fx.model.users),
                             ConstRowBlock(fx.model.items)).ok());
  ASSERT_TRUE(pooled.Prepare(ConstRowBlock(fx.model.users),
                             ConstRowBlock(fx.model.items)).ok());
  TopKResult a;
  TopKResult b;
  ASSERT_TRUE(serial.TopKForNewUsers(queries.data(), 400, 9, &a).ok());
  ASSERT_TRUE(pooled.TopKForNewUsers(queries.data(), 400, 9, &b).ok());
  for (Index r = 0; r < 400; ++r) {
    ExpectSameBits(b.Row(r), a.Row(r), 9, "row " + std::to_string(r));
  }
  ExpectIdsExactScoresNear(a, BruteForceTopK(queries, fx.model.items, 9),
                           1e-9, "pooled");
}

TEST(MaximusTest, NewUserWalkPrunesInsideTheCone) {
  // The tight, skewed model of VisitStatisticsBounded, queried with the
  // prepared users' own vectors as new users: they sit inside (or at the
  // edge of) their cones, so the walk must stop well before the end (the
  // members' bound in VisitStatisticsBounded).
  const MFModel model =
      MakeTestModel(200, 500, 10, /*seed=*/37, /*norm_sigma=*/0.9,
                    /*dispersion=*/0.2);
  MaximusSolver maximus;
  ASSERT_TRUE(maximus.Prepare(ConstRowBlock(model.users),
                              ConstRowBlock(model.items)).ok());
  TopKResult out;
  ASSERT_TRUE(maximus.TopKForNewUsers(model.users.data(), 200, 1, &out).ok());
  EXPECT_GE(maximus.mean_items_visited(), 1.0);
  EXPECT_LT(maximus.mean_items_visited(), 250.0);
  TopKResult members;
  ASSERT_TRUE(maximus.TopKAll(1, &members).ok());
  ExpectSameTopKScores(out, members, 1e-9);
}

TEST(MaximusTest, NewUserBatchRejectsBadArguments) {
  const MFModel model = MakeTestModel(40, 30, 6, 79);
  MaximusSolver maximus;
  TopKResult out;
  EXPECT_EQ(maximus.TopKForNewUsers(model.users.data(), 1, 3, &out).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(maximus.Prepare(ConstRowBlock(model.users),
                              ConstRowBlock(model.items)).ok());
  EXPECT_EQ(maximus.TopKForNewUsers(model.users.data(), 1, 0, &out).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(maximus.TopKForNewUsers(nullptr, 2, 3, &out).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(maximus.TopKForNewUsers(model.users.data(), 0, 3, &out).ok());
  EXPECT_EQ(out.num_queries(), 0);
}

TEST(MaximusTest, AssignNewUserMatchesNearestCentroid) {
  const MFModel model = MakeTestModel(100, 50, 6, 67);
  MaximusSolver maximus;
  ASSERT_TRUE(maximus.Prepare(ConstRowBlock(model.users),
                              ConstRowBlock(model.items)).ok());
  for (Index u = 0; u < 20; ++u) {
    EXPECT_EQ(maximus.AssignNewUser(model.users.Row(u)),
              AssignToNearest(model.users.Row(u),
                              maximus.clustering().centroids));
  }
}

}  // namespace
}  // namespace mips
