// Adversarial and degenerate inputs across all solvers: exact ties,
// duplicate items, zero vectors, single-dimension factors, identical
// users, and large-k GEMM paths.  Every solver must stay exact (same
// score sequences as brute force) on all of them.  Inputs the contract
// cannot honour — NaN and infinite coordinates — must fail with
// InvalidArgument at every public entry point instead, and the
// TopKBackend surface must reach every serving layer.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <limits>
#include <vector>

#include "core/maximus.h"
#include "core/optimus.h"
#include "linalg/gemm.h"
#include "mips.h"
#include "solvers/bmm.h"
#include "solvers/registry.h"
#include "test_util.h"

namespace mips {
namespace {

using ::mips::testing::AllUsers;
using ::mips::testing::ExpectSameTopKScores;
using ::mips::testing::MakeTestModel;
using ::mips::testing::RandomMatrix;

// Runs every registry solver on `model` and compares scores to BMM.
void ExpectAllSolversExact(const MFModel& model, Index k, Real tol = 1e-7) {
  BmmSolver reference;
  ASSERT_TRUE(reference.Prepare(ConstRowBlock(model.users),
                                ConstRowBlock(model.items)).ok());
  TopKResult expected;
  ASSERT_TRUE(reference.TopKAll(k, &expected).ok());
  for (const std::string& name : RegisteredSolverNames()) {
    auto solver = CreateSolverFromSpec(name);
    ASSERT_TRUE(solver.ok());
    ASSERT_TRUE((*solver)->Prepare(ConstRowBlock(model.users),
                                   ConstRowBlock(model.items)).ok())
        << name;
    TopKResult got;
    ASSERT_TRUE((*solver)->TopKAll(k, &got).ok()) << name;
    {
      SCOPED_TRACE(name);
      ExpectSameTopKScores(got, expected, tol);
    }
  }
}

TEST(EdgeCasesTest, DuplicateItems) {
  // Every item appears twice: massive exact score ties.
  MFModel model = MakeTestModel(30, 40, 6, 1);
  for (Index i = 0; i < 20; ++i) {
    std::memcpy(model.items.Row(i + 20), model.items.Row(i),
                6 * sizeof(Real));
  }
  ExpectAllSolversExact(model, 5);
}

TEST(EdgeCasesTest, AllItemsIdentical) {
  MFModel model = MakeTestModel(20, 30, 5, 2);
  for (Index i = 1; i < 30; ++i) {
    std::memcpy(model.items.Row(i), model.items.Row(0), 5 * sizeof(Real));
  }
  ExpectAllSolversExact(model, 4);
}

TEST(EdgeCasesTest, AllUsersIdentical) {
  // theta_b collapses to 0 for MAXIMUS; LEMP calibration sees one user.
  MFModel model = MakeTestModel(25, 60, 7, 3);
  for (Index u = 1; u < 25; ++u) {
    std::memcpy(model.users.Row(u), model.users.Row(0), 7 * sizeof(Real));
  }
  ExpectAllSolversExact(model, 3);
}

TEST(EdgeCasesTest, ZeroItemsAmongNormal) {
  MFModel model = MakeTestModel(20, 50, 6, 4);
  for (Index i : {0, 7, 49}) {
    for (Index c = 0; c < 6; ++c) model.items(i, c) = 0;
  }
  ExpectAllSolversExact(model, 5);
}

TEST(EdgeCasesTest, AllZeroUsers) {
  MFModel model = MakeTestModel(10, 20, 4, 5);
  model.users.Fill(0);
  ExpectAllSolversExact(model, 3);
}

TEST(EdgeCasesTest, SingleFactorDimension) {
  // f=1: all angles are 0 or pi; checkpoints collapse; SVD is trivial.
  MFModel model = MakeTestModel(40, 30, 1, 6);
  ExpectAllSolversExact(model, 4);
}

TEST(EdgeCasesTest, SingleItem) {
  MFModel model = MakeTestModel(15, 1, 5, 7);
  ExpectAllSolversExact(model, 1);
}

TEST(EdgeCasesTest, SingleUser) {
  MFModel model = MakeTestModel(1, 100, 8, 8);
  ExpectAllSolversExact(model, 10);
}

TEST(EdgeCasesTest, KEqualsItemCount) {
  MFModel model = MakeTestModel(12, 17, 6, 9);
  ExpectAllSolversExact(model, 17);
}

TEST(EdgeCasesTest, NegativeOnlyFactors) {
  // All coordinates negative: FEXIPRO's reduction shift is maximal and
  // every inner product is positive.
  MFModel model = MakeTestModel(20, 40, 5, 10);
  for (std::size_t i = 0; i < model.users.size(); ++i) {
    model.users.data()[i] = -std::abs(model.users.data()[i]);
  }
  for (std::size_t i = 0; i < model.items.size(); ++i) {
    model.items.data()[i] = -std::abs(model.items.data()[i]);
  }
  ExpectAllSolversExact(model, 5);
}

TEST(EdgeCasesTest, HugeNormOutlierItem) {
  // One item dominates every top-1; indexes must still return the rest
  // of the top-K correctly.
  MFModel model = MakeTestModel(30, 50, 6, 11);
  for (Index c = 0; c < 6; ++c) model.items(13, c) *= 1e6;
  ExpectAllSolversExact(model, 5, /*tol=*/1e-2);  // absolute scores ~1e6
}

TEST(EdgeCasesTest, ConstantScoresEverywhere) {
  // users = e0 * a, items = e0 * b: every (u,i) score is a*b — total tie.
  MFModel model;
  model.users.Resize(10, 3);
  model.items.Resize(12, 3);
  for (Index u = 0; u < 10; ++u) model.users(u, 0) = 2.0;
  for (Index i = 0; i < 12; ++i) model.items(i, 0) = 0.5;
  ExpectAllSolversExact(model, 4);
}

// GEMM K-blocking path: k > 2*KC exercises three K panels and repeated
// C accumulation.
TEST(EdgeCasesTest, GemmDeepK) {
  const Index m = 37;
  const Index n = 53;
  const Index k = 700;  // KC = 256 -> 3 panels
  const Matrix a = RandomMatrix(m, k, 21);
  const Matrix b = RandomMatrix(n, k, 22);
  Matrix c(m, n);
  Matrix ref(m, n);
  GemmNT(a.data(), m, b.data(), n, k, 1, 0, c.data(), n);
  GemmNaiveNT(a.data(), m, b.data(), n, k, 1, 0, ref.data(), n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], ref.data()[i],
                1e-8 * (1 + std::abs(ref.data()[i])));
  }
}

// GEMM N-blocking path: n > NC (2048) exercises multiple column panels.
TEST(EdgeCasesTest, GemmWideN) {
  const Index m = 9;
  const Index n = 5000;
  const Index k = 33;
  const Matrix a = RandomMatrix(m, k, 23);
  const Matrix b = RandomMatrix(n, k, 24);
  Matrix c(m, n);
  Matrix ref(m, n);
  GemmNT(a.data(), m, b.data(), n, k, 1, 0, c.data(), n);
  GemmNaiveNT(a.data(), m, b.data(), n, k, 1, 0, ref.data(), n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c.data()[i], ref.data()[i],
                1e-9 * (1 + std::abs(ref.data()[i])));
  }
}

// Randomized GEMM property sweep: 40 random shapes against the naive
// reference.
TEST(EdgeCasesTest, GemmRandomShapeSweep) {
  Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const Index m = 1 + static_cast<Index>(rng.UniformInt(90));
    const Index n = 1 + static_cast<Index>(rng.UniformInt(150));
    const Index k = 1 + static_cast<Index>(rng.UniformInt(70));
    const Matrix a = RandomMatrix(m, k, 100 + trial);
    const Matrix b = RandomMatrix(n, k, 200 + trial);
    Matrix c(m, n);
    Matrix ref(m, n);
    GemmNT(a.data(), m, b.data(), n, k, 1, 0, c.data(), n);
    GemmNaiveNT(a.data(), m, b.data(), n, k, 1, 0, ref.data(), n);
    for (std::size_t i = 0; i < c.size(); ++i) {
      ASSERT_NEAR(c.data()[i], ref.data()[i],
                  1e-9 * (1 + std::abs(ref.data()[i])))
          << "trial " << trial << " shape " << m << "x" << n << "x" << k;
    }
  }
}

TEST(EdgeCasesTest, OptimusWithDuplicateStrategyTypes) {
  // Two BMM instances plus MAXIMUS: degenerate but must still work.
  const MFModel model = MakeTestModel(200, 100, 8, 12);
  BmmSolver bmm1;
  BmmSolver bmm2;
  MaximusSolver maximus;
  OptimusOptions options;
  options.l2_cache_bytes = 8 * 1024;
  Optimus optimus(options);
  TopKResult out;
  OptimusReport report;
  ASSERT_TRUE(optimus
                  .Run(ConstRowBlock(model.users), ConstRowBlock(model.items),
                       3, {&bmm1, &bmm2, &maximus}, &out, &report)
                  .ok());
  BmmSolver reference;
  ASSERT_TRUE(reference.Prepare(ConstRowBlock(model.users),
                                ConstRowBlock(model.items)).ok());
  TopKResult expected;
  ASSERT_TRUE(reference.TopKAll(3, &expected).ok());
  ExpectSameTopKScores(out, expected, 1e-7);
}

TEST(EdgeCasesTest, UmbrellaHeaderCompilesAndWorks) {
  // mips.h pulls in the whole public API; spot-check a cross-module flow.
  const MFModel model = MakeTestModel(50, 30, 4, 13);
  auto solver = CreateSolverFromSpec("maximus");
  ASSERT_TRUE(solver.ok());
  ASSERT_TRUE((*solver)->Prepare(ConstRowBlock(model.users),
                                 ConstRowBlock(model.items)).ok());
  TopKResult out;
  ASSERT_TRUE((*solver)->TopKAll(2, &out).ok());
  EXPECT_EQ(out.num_queries(), 50);
}

// ------------------------------------------------- the TopKBackend surface

TEST(TopKBackendTest, SummariesAndInvalidationReachEveryLayer) {
  const MFModel model = MakeTestModel(30, 45, 4, 54);
  const ConstRowBlock users(model.users);
  const ConstRowBlock items(model.items);
  EngineOptions engine_options;
  engine_options.k = 3;
  engine_options.solvers = {"bmm"};
  auto engine = MipsEngine::Open(users, items, engine_options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ShardedEngineOptions sharded_options;
  sharded_options.num_shards = 3;
  sharded_options.engine = engine_options;
  auto sharded = ShardedMipsEngine::Open(users, items, sharded_options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  LiveCatalogOptions catalog_options;
  catalog_options.engine = engine_options;
  catalog_options.num_shards = 3;
  auto catalog = LiveCatalog::Open(users, items, catalog_options);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  auto empty = LiveCatalog::Open(users, ConstRowBlock(), catalog_options);
  ASSERT_TRUE(empty.ok()) << empty.status().ToString();

  EXPECT_EQ((*engine)->StrategySummary(), "bmm");
  EXPECT_EQ((*sharded)->StrategySummary(), "bmm,bmm,bmm");
  EXPECT_EQ((*catalog)->StrategySummary(), "bmm,bmm,bmm");
  EXPECT_EQ((*catalog)->stats().base_strategy, "bmm,bmm,bmm");
  EXPECT_EQ((*empty)->StrategySummary(), "");

  // Each engine holds its pinned opening decision.
  EXPECT_EQ((*engine)->InvalidateDecisions(), 1);
  EXPECT_EQ((*sharded)->InvalidateDecisions(), 3);
  EXPECT_EQ((*catalog)->InvalidateDecisions(), 3);
  EXPECT_EQ((*empty)->InvalidateDecisions(), 0);
}

// ------------------------------------------------------ non-finite inputs

const Real kNonFinite[] = {std::numeric_limits<Real>::quiet_NaN(),
                           std::numeric_limits<Real>::infinity(),
                           -std::numeric_limits<Real>::infinity()};

TEST(NonFiniteInputTest, NewUserQueriesFailOnEveryBackend) {
  const MFModel model = MakeTestModel(40, 60, 6, 51);
  const ConstRowBlock users(model.users);
  const ConstRowBlock items(model.items);
  EngineOptions engine_options;
  engine_options.k = 5;
  engine_options.solvers = {"bmm", "maximus"};
  auto engine = MipsEngine::Open(users, items, engine_options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ShardedEngineOptions sharded_options;
  sharded_options.num_shards = 3;
  sharded_options.engine = engine_options;
  auto sharded = ShardedMipsEngine::Open(users, items, sharded_options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  LiveCatalogOptions catalog_options;
  catalog_options.engine = engine_options;
  auto catalog = LiveCatalog::Open(users, items, catalog_options);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();

  const std::vector<TopKBackend*> backends = {engine->get(), sharded->get(),
                                              catalog->get()};
  for (const Real bad : kNonFinite) {
    // Two rows: the second carries the bad coordinate, so the whole
    // batch fails rather than returning a row for the good one.
    Matrix batch = RandomMatrix(2, 6, 52);
    batch.Row(1)[3] = bad;
    for (TopKBackend* backend : backends) {
      TopKResult out;
      EXPECT_EQ(backend->TopKNewUsers(batch.data(), 2, 5, &out).code(),
                StatusCode::kInvalidArgument)
          << backend->StrategySummary() << " value " << bad;
      std::vector<TopKEntry> row(5);
      EXPECT_EQ(backend->TopKNewUser(batch.Row(1), 5, row.data()).code(),
                StatusCode::kInvalidArgument)
          << backend->StrategySummary() << " value " << bad;
      // The good row alone still serves.
      EXPECT_TRUE(backend->TopKNewUser(batch.Row(0), 5, row.data()).ok());
    }
  }
  // Only the good singletons reached the engines.
  EXPECT_EQ((*engine)->stats().new_users_served, 3);
  EXPECT_EQ((*sharded)->stats().new_users_served, 3);
}

TEST(NonFiniteInputTest, BatchingAdmissionRejectsBeforeQueueing) {
  const Index f = 4;
  std::atomic<int> backend_rows{0};
  auto batching = BatchingEngine::Create(
      [&backend_rows](const Real*, Index rows, Index k, TopKResult* out) {
        backend_rows += rows;
        *out = TopKResult(rows, k);
        return Status::OK();
      },
      f, BatchingOptions());
  ASSERT_TRUE(batching.ok()) << batching.status().ToString();

  std::vector<TopKEntry> row(3);
  for (const Real bad : kNonFinite) {
    std::vector<Real> vector = {1, 2, bad, 4};
    auto future = (*batching)->SubmitNewUser(vector.data(), 3, row.data());
    EXPECT_EQ(future.get().code(), StatusCode::kInvalidArgument) << bad;
  }
  const std::vector<Real> good = {1, 2, 3, 4};
  EXPECT_TRUE((*batching)->TopKNewUser(good.data(), 3, row.data()).ok());
  EXPECT_EQ(backend_rows.load(), 1);
  const BatchingEngine::Stats stats = (*batching)->stats();
  EXPECT_EQ(stats.submitted, 1);
  EXPECT_EQ(stats.served, 1);
}

TEST(NonFiniteInputTest, CatalogMutationsReject) {
  const MFModel model = MakeTestModel(10, 12, 4, 53);
  LiveCatalogOptions options;
  options.engine.k = 3;
  options.engine.solvers = {"bmm"};
  auto catalog = LiveCatalog::Open(ConstRowBlock(model.users),
                                   ConstRowBlock(model.items), options);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  LiveCatalog& live = **catalog;
  for (const Real bad : kNonFinite) {
    const std::vector<Real> vector = {0.5, bad, -1, 2};
    EXPECT_EQ(live.Insert(vector).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
    EXPECT_EQ(live.Update(3, vector).code(), StatusCode::kInvalidArgument)
        << bad;
  }
  EXPECT_EQ(live.num_items(), 12);
  const LiveCatalog::Stats stats = live.stats();
  EXPECT_EQ(stats.inserts, 0);
  EXPECT_EQ(stats.updates, 0);
  EXPECT_EQ(stats.buffered_rows, 0);
}

}  // namespace
}  // namespace mips
