// Tests for the spec grammar (spec.h) and the self-registering solver
// registry (registry.h): parsing, schema round-trips, and every error
// path a malformed spec can take.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/dynamic_maximus.h"
#include "core/maximus.h"
#include "linalg/blas.h"
#include "solvers/registry.h"
#include "solvers/spec.h"
#include "test_util.h"
#include "topk/topk_heap.h"

namespace mips {
namespace {

using ::mips::testing::MakeTestModel;

// ------------------------------------------------------------ Spec parsing

TEST(SolverSpecTest, ParsesBareName) {
  auto spec = ParseSolverSpec("maximus");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->name, "maximus");
  EXPECT_TRUE(spec->params.empty());
  EXPECT_EQ(spec->ToString(), "maximus");
}

TEST(SolverSpecTest, ParsesParams) {
  auto spec = ParseSolverSpec("maximus:clusters=64,seed=7");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->name, "maximus");
  ASSERT_EQ(spec->params.size(), 2u);
  EXPECT_EQ(spec->params[0].first, "clusters");
  EXPECT_EQ(spec->params[0].second, "64");
  EXPECT_EQ(spec->params[1].first, "seed");
  EXPECT_EQ(spec->params[1].second, "7");
  EXPECT_EQ(spec->ToString(), "maximus:clusters=64,seed=7");
}

TEST(SolverSpecTest, TrimsWhitespace) {
  auto spec = ParseSolverSpec("  lemp : bucket_size = 128 ");
  ASSERT_TRUE(spec.ok());
  EXPECT_EQ(spec->name, "lemp");
  ASSERT_EQ(spec->params.size(), 1u);
  EXPECT_EQ(spec->params[0].first, "bucket_size");
  EXPECT_EQ(spec->params[0].second, "128");
}

TEST(SolverSpecTest, EmptyParamListIsAllowed) {
  auto spec = ParseSolverSpec("bmm:");
  ASSERT_TRUE(spec.ok());
  EXPECT_TRUE(spec->params.empty());
}

TEST(SolverSpecTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(ParseSolverSpec("").ok());
  EXPECT_FALSE(ParseSolverSpec(":clusters=4").ok());
  // Missing '=' — the error must name the fragment.
  auto missing_eq = ParseSolverSpec("maximus:clusters");
  ASSERT_FALSE(missing_eq.ok());
  EXPECT_NE(missing_eq.status().message().find("clusters"),
            std::string::npos);
  // Empty key.
  EXPECT_FALSE(ParseSolverSpec("maximus:=4").ok());
  // Duplicate key — named in the error.
  auto dup = ParseSolverSpec("maximus:clusters=4,clusters=8");
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.status().message().find("clusters"), std::string::npos);
  // Empty pair between separators.
  EXPECT_FALSE(ParseSolverSpec("maximus:clusters=4,,seed=1").ok());
}

// ------------------------------------------------------------- Registry

TEST(RegistrySchemaTest, RegistersExpectedSolvers) {
  // The canonical solver families must all be present — this also guards
  // against the linker dropping a static registrar.
  const std::vector<std::string> expected = {
      "bmm",     "dynamic-maximus", "fexipro-si", "fexipro-sir",
      "hybrid",  "lemp",            "maximus",    "naive",
      "sindi"};
  EXPECT_EQ(RegisteredSolverNames(), expected);
  EXPECT_EQ(RegisteredSolverNames(), expected);
}

TEST(RegistrySchemaTest, DescribeCoversEveryVisibleSolver) {
  const std::vector<SolverSchema> schemas = DescribeSolvers();
  ASSERT_EQ(schemas.size(), RegisteredSolverNames().size());
  for (std::size_t i = 0; i < schemas.size(); ++i) {
    EXPECT_EQ(schemas[i].name(), RegisteredSolverNames()[i]);
    for (const ParamSpec& param : schemas[i].params()) {
      EXPECT_FALSE(param.doc.empty())
          << schemas[i].name() << "." << param.name << " lacks a doc string";
    }
  }
  EXPECT_NE(SolverHelpText().find("maximus"), std::string::npos);
}

TEST(RegistrySchemaTest, DefaultsRoundTripThroughSpecs) {
  // Spelling out every schema default explicitly must create the same
  // kind of solver as the bare name.
  for (const SolverSchema& schema : DescribeSolvers()) {
    std::string spec = schema.name();
    for (std::size_t i = 0; i < schema.params().size(); ++i) {
      spec += (i == 0) ? ':' : ',';
      spec += schema.params()[i].name;
      spec += '=';
      spec += schema.params()[i].default_value.ToString();
    }
    auto bare = CreateSolverFromSpec(schema.name());
    auto spelled = CreateSolverFromSpec(spec);
    ASSERT_TRUE(bare.ok()) << schema.name();
    ASSERT_TRUE(spelled.ok()) << spec << ": " << spelled.status().ToString();
    EXPECT_EQ((*bare)->name(), (*spelled)->name()) << spec;
    EXPECT_EQ((*bare)->name(), schema.name()) << spec;
  }
}

TEST(RegistryErrorsTest, UnknownSolverListsRegistered) {
  auto solver = CreateSolverFromSpec("does-not-exist");
  ASSERT_FALSE(solver.ok());
  EXPECT_EQ(solver.status().code(), StatusCode::kNotFound);
  EXPECT_NE(solver.status().message().find("does-not-exist"),
            std::string::npos);
  EXPECT_NE(solver.status().message().find("maximus"), std::string::npos);
}

TEST(RegistryErrorsTest, UnknownKeyNamesTheKey) {
  auto solver = CreateSolverFromSpec("maximus:cluster_count=4");
  ASSERT_FALSE(solver.ok());
  EXPECT_EQ(solver.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(solver.status().message().find("cluster_count"),
            std::string::npos);
  EXPECT_NE(solver.status().message().find("maximus"), std::string::npos);
}

TEST(RegistryErrorsTest, BadValueNamesKeyAndType) {
  auto not_an_int = CreateSolverFromSpec("maximus:clusters=four");
  ASSERT_FALSE(not_an_int.ok());
  EXPECT_EQ(not_an_int.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(not_an_int.status().message().find("clusters"),
            std::string::npos);
  EXPECT_NE(not_an_int.status().message().find("int"), std::string::npos);

  auto not_a_bool = CreateSolverFromSpec("fexipro:use_reduction=maybe");
  ASSERT_FALSE(not_a_bool.ok());
  EXPECT_NE(not_a_bool.status().message().find("use_reduction"),
            std::string::npos);

  auto not_a_real = CreateSolverFromSpec("fexipro:svd_energy_fraction=high");
  ASSERT_FALSE(not_a_real.ok());
  EXPECT_NE(not_a_real.status().message().find("svd_energy_fraction"),
            std::string::npos);
}

TEST(RegistryErrorsTest, RejectsOutOfRangeIntValues) {
  // Values that fit int64 but not the 32-bit Index must be rejected,
  // not silently truncated (2^32+1 would truncate to clusters=1).
  EXPECT_FALSE(CreateSolverFromSpec("maximus:clusters=4294967297").ok());
  EXPECT_FALSE(CreateSolverFromSpec("lemp:calibration_users=4294967296").ok());
  // Beyond int64: strtoll overflow.
  EXPECT_FALSE(CreateSolverFromSpec("maximus:seed=99999999999999999999999").ok());
}

TEST(RegistryErrorsTest, FactoriesRejectSemanticallyInvalidValues) {
  EXPECT_FALSE(CreateSolverFromSpec("maximus:clusters=0").ok());
  EXPECT_FALSE(CreateSolverFromSpec("maximus:clusters=-3").ok());
  EXPECT_FALSE(CreateSolverFromSpec("lemp:forced_algorithm=9").ok());
  EXPECT_FALSE(CreateSolverFromSpec("fexipro:svd_energy_fraction=1.5").ok());
}

TEST(RegistryVariantsTest, FexiproReductionFlagSelectsVariant) {
  // The satellite requirement: fexipro-sir is the schema'd variant
  // "fexipro:use_reduction=true".
  auto sir_by_flag = CreateSolverFromSpec("fexipro:use_reduction=true");
  ASSERT_TRUE(sir_by_flag.ok());
  EXPECT_EQ((*sir_by_flag)->name(), "fexipro-sir");
  auto si_by_default = CreateSolverFromSpec("fexipro");
  ASSERT_TRUE(si_by_default.ok());
  EXPECT_EQ((*si_by_default)->name(), "fexipro-si");
  auto si_from_sir = CreateSolverFromSpec("fexipro-sir:use_reduction=false");
  ASSERT_TRUE(si_from_sir.ok());
  EXPECT_EQ((*si_from_sir)->name(), "fexipro-si");
}

TEST(RegistryVariantsTest, HiddenAliasIsNotListed) {
  const std::vector<std::string> names = RegisteredSolverNames();
  EXPECT_EQ(std::count(names.begin(), names.end(), "fexipro"), 0);
  EXPECT_TRUE(CreateSolverFromSpec("fexipro").ok());
}

TEST(RegistryOptionsTest, OverridesReachTheSolver) {
  // clusters=2 must actually produce a 2-cluster MAXIMUS index.
  const MFModel model = MakeTestModel(60, 40, 6, 3);
  auto solver = CreateSolverFromSpec("maximus:clusters=2,iterations=1");
  ASSERT_TRUE(solver.ok());
  ASSERT_TRUE((*solver)
                  ->Prepare(ConstRowBlock(model.users),
                            ConstRowBlock(model.items))
                  .ok());
  auto* maximus = dynamic_cast<MaximusSolver*>(solver->get());
  ASSERT_NE(maximus, nullptr);
  EXPECT_EQ(maximus->clustering().centroids.rows(), 2);
  EXPECT_EQ(maximus->theta_b().size(), 2u);
}

TEST(RegistryOptionsTest, DynamicMaximusServesChurn) {
  // The registered adapter must expose the churn lifecycle and stay
  // exact for users added after Prepare.
  const MFModel model = MakeTestModel(80, 50, 8, 5);
  const MFModel extra = MakeTestModel(4, 50, 8, 6);
  auto solver = CreateSolverFromSpec("dynamic-maximus:recluster_churn_fraction=0.5");
  ASSERT_TRUE(solver.ok());
  ASSERT_TRUE((*solver)
                  ->Prepare(ConstRowBlock(model.users),
                            ConstRowBlock(model.items))
                  .ok());
  auto* adapter = dynamic_cast<DynamicMaximusSolver*>(solver->get());
  ASSERT_NE(adapter, nullptr);
  auto id = adapter->dynamic().AddUser(extra.users.Row(0));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 80);
  std::vector<TopKEntry> row(5);
  ASSERT_TRUE(adapter->dynamic().TopKForUser(*id, 5, row.data()).ok());
  // Reference by dense scan.
  TopKHeap heap(5);
  for (Index i = 0; i < 50; ++i) {
    heap.Push(i, Dot(extra.users.Row(0), model.items.Row(i), 8));
  }
  std::vector<TopKEntry> expected(5);
  heap.ExtractDescending(expected.data());
  for (Index e = 0; e < 5; ++e) {
    EXPECT_NEAR(row[static_cast<std::size_t>(e)].score,
                expected[static_cast<std::size_t>(e)].score, 1e-9);
  }
}

}  // namespace
}  // namespace mips
