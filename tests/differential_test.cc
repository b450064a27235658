// Randomized differential testing: many seeded random workload
// configurations, every solver (and OPTIMUS, and the MipsEngine)
// must produce identical exact top-K score sequences.  This is the
// library's fuzz harness — any divergence between two exact solvers is a
// bug by definition, whatever the input distribution.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/engine.h"
#include "core/maximus.h"
#include "core/optimus.h"
#include "linalg/simd_dispatch.h"
#include "solvers/bmm.h"
#include "solvers/registry.h"
#include "test_util.h"

namespace mips {
namespace {

using ::mips::testing::ExpectSameTopKScores;

// One random workload drawn from a seeded generator: dimensions, K,
// norm skew, clusterability, and sign structure all vary.
struct RandomWorkload {
  MFModel model;
  Index k = 1;
};

RandomWorkload DrawWorkload(uint64_t seed) {
  Rng rng(seed);
  SyntheticModelConfig config;
  config.seed = seed * 31 + 7;
  config.num_users = 10 + static_cast<Index>(rng.UniformInt(150));
  config.num_items = 5 + static_cast<Index>(rng.UniformInt(300));
  config.num_factors = 1 + static_cast<Index>(rng.UniformInt(40));
  config.item_norm_sigma = rng.Uniform(0.0, 1.5);
  config.item_norm_mu = rng.Uniform(-0.5, 0.5);
  config.user_modes = 1 + static_cast<Index>(rng.UniformInt(12));
  config.user_dispersion = rng.Uniform(0.0, 2.0);
  config.user_norm_sigma = rng.Uniform(0.0, 0.8);
  config.non_negative = rng.UniformInt(3) == 0;
  RandomWorkload workload;
  auto model = GenerateSyntheticModel(config);
  EXPECT_TRUE(model.ok());
  workload.model = std::move(model).value();
  // K occasionally exceeds the item count to exercise padding.
  workload.k = 1 + static_cast<Index>(
                       rng.UniformInt(static_cast<uint64_t>(
                           workload.model.num_items() + 3)));
  return workload;
}

class DifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(DifferentialTest, AllSolversAgreeOnRandomWorkload) {
  const RandomWorkload workload =
      DrawWorkload(static_cast<uint64_t>(GetParam()));
  const MFModel& model = workload.model;
  SCOPED_TRACE(::testing::Message()
               << "seed=" << GetParam() << " users=" << model.num_users()
               << " items=" << model.num_items()
               << " f=" << model.num_factors() << " k=" << workload.k);

  BmmSolver reference;
  ASSERT_TRUE(reference.Prepare(ConstRowBlock(model.users),
                                ConstRowBlock(model.items)).ok());
  TopKResult expected;
  ASSERT_TRUE(reference.TopKAll(workload.k, &expected).ok());

  for (const std::string& name : RegisteredSolverNames()) {
    auto solver = CreateSolverFromSpec(name);
    ASSERT_TRUE(solver.ok());
    ASSERT_TRUE((*solver)->Prepare(ConstRowBlock(model.users),
                                   ConstRowBlock(model.items)).ok())
        << name;
    TopKResult got;
    ASSERT_TRUE((*solver)->TopKAll(workload.k, &got).ok()) << name;
    SCOPED_TRACE(name);
    // Scores can be large when norm_mu is high; scale the tolerance.
    ExpectSameTopKScores(got, expected,
                         1e-7 * (1 + std::abs(expected.Row(0)[0].score)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest, ::testing::Range(1, 33));

// Forcing each compiled-and-supported GEMM kernel must leave every
// solver's top-k BIT-FOR-BIT unchanged — ids and scores — because all
// kernel variants run the identical per-element fma sequence
// (linalg/gemm_kernel.h).  This is the engine-level guarantee behind the
// runtime dispatch: an operator (or the startup probe) can swap kernels
// on a live fleet without a single score moving.
/// TearDown (not a trailing statement) restores auto dispatch, so a
/// failing ASSERT mid-test cannot leak a forced kernel into later suites.
class DifferentialKernelTest : public ::testing::Test {
 protected:
  void TearDown() override { ResetGemmKernelForTest(); }
};

TEST_F(DifferentialKernelTest, TopKBitForBitAcrossForcedKernels) {
  std::vector<GemmKernel> kernels;
  for (int v = 0; v < kNumGemmKernels; ++v) {
    if (GemmKernelSupported(static_cast<GemmKernel>(v))) {
      kernels.push_back(static_cast<GemmKernel>(v));
    }
  }
  // LEMP's adaptive mode picks per-bucket algorithms by wall-clock
  // calibration, and its (all exact) algorithms accumulate the same dot
  // in different orders — nondeterminism that has nothing to do with the
  // GEMM kernel, so it is pinned to one algorithm (INCR) here.
  std::vector<std::string> specs;
  for (const std::string& name : RegisteredSolverNames()) {
    specs.push_back(name == "lemp" ? "lemp:forced_algorithm=2" : name);
  }
  for (int seed = 200; seed < 206; ++seed) {
    const RandomWorkload workload = DrawWorkload(static_cast<uint64_t>(seed));
    const MFModel& model = workload.model;
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);
    // Reference under the portable kernel, per solver family.
    std::map<std::string, TopKResult> expected;
    ASSERT_TRUE(ForceGemmKernel(GemmKernel::kPortable).ok());
    for (const std::string& name : specs) {
      auto solver = CreateSolverFromSpec(name);
      ASSERT_TRUE(solver.ok());
      ASSERT_TRUE((*solver)->Prepare(ConstRowBlock(model.users),
                                     ConstRowBlock(model.items)).ok());
      ASSERT_TRUE((*solver)->TopKAll(workload.k, &expected[name]).ok());
    }
    for (const GemmKernel kernel : kernels) {
      ASSERT_TRUE(ForceGemmKernel(kernel).ok());
      for (const std::string& name : specs) {
        auto solver = CreateSolverFromSpec(name);
        ASSERT_TRUE(solver.ok());
        ASSERT_TRUE((*solver)->Prepare(ConstRowBlock(model.users),
                                       ConstRowBlock(model.items)).ok());
        TopKResult got;
        ASSERT_TRUE((*solver)->TopKAll(workload.k, &got).ok());
        const TopKResult& want = expected[name];
        ASSERT_EQ(got.num_queries(), want.num_queries());
        for (Index q = 0; q < got.num_queries(); ++q) {
          for (Index e = 0; e < got.k(); ++e) {
            ASSERT_EQ(got.Row(q)[e].item, want.Row(q)[e].item)
                << name << " under " << ToString(kernel) << " row " << q
                << " entry " << e;
            const Real gs = got.Row(q)[e].score;
            const Real ws = want.Row(q)[e].score;
            // Exact equality (NaN-free fixtures; padding sentinels are
            // -inf and compare equal to themselves).
            ASSERT_EQ(gs, ws) << name << " under " << ToString(kernel)
                              << " row " << q << " entry " << e;
          }
        }
      }
    }
  }
}

TEST(DifferentialOptimusTest, OptimusExactOnRandomWorkloads) {
  for (int seed = 100; seed < 108; ++seed) {
    const RandomWorkload workload = DrawWorkload(static_cast<uint64_t>(seed));
    const MFModel& model = workload.model;
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);

    BmmSolver reference;
    ASSERT_TRUE(reference.Prepare(ConstRowBlock(model.users),
                                  ConstRowBlock(model.items)).ok());
    TopKResult expected;
    ASSERT_TRUE(reference.TopKAll(workload.k, &expected).ok());

    BmmSolver bmm;
    MaximusSolver maximus;
    OptimusOptions options;
    options.l2_cache_bytes = 4 * 1024;
    options.seed = static_cast<uint64_t>(seed);
    Optimus optimus(options);
    TopKResult got;
    ASSERT_TRUE(optimus
                    .Run(ConstRowBlock(model.users),
                         ConstRowBlock(model.items), workload.k,
                         {&bmm, &maximus}, &got)
                    .ok());
    ExpectSameTopKScores(got, expected,
                         1e-7 * (1 + std::abs(expected.Row(0)[0].score)));
  }
}

TEST(DifferentialServingTest, EngineExactOnRandomBatches) {
  for (int seed = 200; seed < 205; ++seed) {
    const RandomWorkload workload = DrawWorkload(static_cast<uint64_t>(seed));
    const MFModel& model = workload.model;
    SCOPED_TRACE(::testing::Message() << "seed=" << seed);

    EngineOptions options;
    options.k = workload.k;
    options.optimus.l2_cache_bytes = 4 * 1024;
    options.redecide_on_new_k = false;
    auto engine = MipsEngine::Open(ConstRowBlock(model.users),
                                   ConstRowBlock(model.items), options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    BmmSolver reference;
    ASSERT_TRUE(reference.Prepare(ConstRowBlock(model.users),
                                  ConstRowBlock(model.items)).ok());

    Rng rng(static_cast<uint64_t>(seed) + 999);
    for (int batch = 0; batch < 5; ++batch) {
      std::vector<Index> ids;
      const int size = 1 + static_cast<int>(rng.UniformInt(7));
      for (int i = 0; i < size; ++i) {
        ids.push_back(static_cast<Index>(
            rng.UniformInt(static_cast<uint64_t>(model.num_users()))));
      }
      TopKResult got;
      TopKResult expected;
      ASSERT_TRUE((*engine)->TopK(workload.k, ids, &got).ok());
      ASSERT_TRUE(reference.TopKForUsers(workload.k, ids, &expected).ok());
      ExpectSameTopKScores(got, expected,
                           1e-7 * (1 + std::abs(expected.Row(0)[0].score)));
    }
  }
}

}  // namespace
}  // namespace mips
