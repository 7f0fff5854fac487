// Extension features and hardening: ensemble detector, weighted path
// search, cycle-enumeration step budgets, rank-invariance properties, and
// precondition death tests.
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "src/graph/algorithms.h"
#include "src/metrics/classification.h"
#include "src/nn/autograd.h"
#include "src/od/ecod.h"
#include "src/od/ensemble.h"
#include "src/sampling/group_sampler.h"
#include "src/util/rng.h"

namespace grgad {
namespace {

TEST(RankNormalizeTest, MapsToUnitInterval) {
  const auto r = RankNormalize({3.0, 1.0, 2.0});
  EXPECT_DOUBLE_EQ(r[1], 0.0);
  EXPECT_DOUBLE_EQ(r[2], 0.5);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
}

TEST(RankNormalizeTest, TiesShareMeanRank) {
  const auto r = RankNormalize({1.0, 1.0, 2.0, 2.0});
  EXPECT_DOUBLE_EQ(r[0], r[1]);
  EXPECT_DOUBLE_EQ(r[2], r[3]);
  EXPECT_LT(r[0], r[2]);
  // Degenerate inputs.
  EXPECT_TRUE(RankNormalize({}).empty());
  EXPECT_EQ(RankNormalize({5.0}), (std::vector<double>{0.0}));
}

TEST(EnsembleTest, DetectsPlantedOutliers) {
  Rng rng(3);
  Matrix x(120, 4);
  std::vector<int> labels(120, 0);
  for (int i = 0; i < 110; ++i) {
    for (int j = 0; j < 4; ++j) x(i, j) = rng.Normal(0.0, 1.0);
  }
  for (int i = 110; i < 120; ++i) {
    labels[i] = 1;
    for (int j = 0; j < 4; ++j) {
      x(i, j) = (rng.Bernoulli(0.5) ? 1 : -1) * rng.Uniform(7.0, 12.0);
    }
  }
  auto ensemble = EnsembleDetector::MakeDefault(5);
  EXPECT_EQ(ensemble->size(), 3u);
  EXPECT_EQ(ensemble->Name(), "ensemble");
  const auto scores = ensemble->FitScore(x);
  EXPECT_GT(RocAuc(labels, scores), 0.95);
  // Scores are averaged ranks -> within [0, 1].
  for (double s : scores) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(EnsembleTest, FactoryAndParse) {
  DetectorKind kind;
  ASSERT_TRUE(ParseDetectorKind("ensemble", &kind));
  EXPECT_EQ(kind, DetectorKind::kEnsemble);
  auto detector = MakeOutlierDetector(kind, 11);
  ASSERT_NE(detector, nullptr);
  Matrix x(10, 2);
  for (int i = 0; i < 10; ++i) x(i, 0) = i;
  EXPECT_EQ(detector->FitScore(x).size(), 10u);
}

TEST(CycleBudgetTest, TruncatesDeterministically) {
  // Dense-ish graph where full enumeration would be large.
  Rng rng(4);
  GraphBuilder b(40);
  for (int e = 0; e < 200; ++e) {
    const int u = static_cast<int>(rng.UniformInt(uint64_t{40}));
    const int v = static_cast<int>(rng.UniformInt(uint64_t{40}));
    if (u != v) b.AddEdge(u, v);
  }
  Graph g = b.Build();
  const auto few = CyclesThrough(g, 0, 10, 1000, /*max_steps=*/200);
  const auto few2 = CyclesThrough(g, 0, 10, 1000, /*max_steps=*/200);
  EXPECT_EQ(few, few2);  // Deterministic truncation.
  const auto more = CyclesThrough(g, 0, 10, 1000, /*max_steps=*/20000);
  EXPECT_GE(more.size(), few.size());
}

TEST(WeightedPathTest, PrefersStructurallyTightRoute) {
  // Two routes from 0 to 3: through a triangle-reinforced pair (1a) or a
  // bare chain (2a, 2b). GraphSNN weights make the reinforced edges cheap.
  GraphBuilder b(8);
  // Tight route: 0-1-3 where 0-1, 1-3 each close triangles.
  b.AddEdge(0, 1);
  b.AddEdge(1, 3);
  b.AddEdge(0, 4);
  b.AddEdge(4, 1);  // Triangle 0-1-4.
  b.AddEdge(1, 5);
  b.AddEdge(5, 3);  // Triangle 1-3-5.
  // Loose route of equal hop count via 6: 0-6, 6-3.
  b.AddEdge(0, 6);
  b.AddEdge(6, 3);
  Graph g = b.Build();
  GroupSamplerOptions options;
  options.path_mode = PathSearchMode::kGraphSnnWeighted;
  options.min_group_size = 3;
  options.include_anchor_components = false;
  GroupSampler sampler(options);
  const auto groups = sampler.Sample(g, {0, 3});
  // The weighted path 0-1-3 must be among candidates.
  const std::vector<int> tight = {0, 1, 3};
  EXPECT_NE(std::find(groups.begin(), groups.end(), tight), groups.end());
}

TEST(WeightedPathTest, ModesAgreeOnUniformChain) {
  GraphBuilder b(6);
  for (int i = 0; i + 1 < 6; ++i) b.AddEdge(i, i + 1);
  Matrix x(6, 2, 1.0);
  Graph g = b.Build(std::move(x));
  std::vector<std::vector<std::vector<int>>> results;
  for (PathSearchMode mode :
       {PathSearchMode::kUnweighted, PathSearchMode::kAttributeDistance,
        PathSearchMode::kGraphSnnWeighted}) {
    GroupSamplerOptions options;
    options.path_mode = mode;
    results.push_back(GroupSampler(options).Sample(g, {0, 5}));
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0], results[2]);
}

// Property: ECOD scores are invariant under positive affine per-column
// transforms — tail probabilities are rank-based and the skewness sign
// (which picks the "auto" tail) is affine-invariant. (A general monotone
// transform can flip the skewness sign, so only affine invariance holds.)
class EcodInvarianceTest : public ::testing::TestWithParam<int> {};

TEST_P(EcodInvarianceTest, AffineTransformInvariance) {
  Rng rng(100 + GetParam());
  Matrix x = Matrix::Gaussian(50, 3, &rng);
  Matrix y = x.MapFn([](double v) { return 2.5 * v - 7.0; });
  Ecod ecod;
  const auto sx = ecod.FitScore(x);
  const auto sy = ecod.FitScore(y);
  for (size_t i = 0; i < sx.size(); ++i) {
    EXPECT_NEAR(sx[i], sy[i], 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EcodInvarianceTest, ::testing::Range(0, 5));

// Property: ROC-AUC is invariant under strictly increasing transforms of
// the scores.
TEST(AucInvarianceTest, MonotoneTransform) {
  Rng rng(9);
  std::vector<int> labels(40);
  std::vector<double> scores(40);
  for (int i = 0; i < 40; ++i) {
    labels[i] = rng.Bernoulli(0.3);
    scores[i] = rng.Normal(labels[i], 1.0);
  }
  std::vector<double> transformed(40);
  for (int i = 0; i < 40; ++i) {
    transformed[i] = std::atan(scores[i]) * 10.0 + 100.0;
  }
  EXPECT_NEAR(RocAuc(labels, scores), RocAuc(labels, transformed), 1e-12);
}

using PreconditionDeathTest = ::testing::Test;

TEST(PreconditionDeathTest, MatrixShapeMismatchAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Matrix a(2, 2), b(3, 2);
  EXPECT_DEATH(a.AddInPlace(b), "CHECK failed");
  Matrix out(2, 1);
  EXPECT_DEATH(MatMulInto(a, Matrix(3, 1), &out), "CHECK failed");
}

TEST(PreconditionDeathTest, GraphBuilderRejectsOutOfRange) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  GraphBuilder b(3);
  EXPECT_DEATH(b.AddEdge(0, 3), "CHECK failed");
  EXPECT_DEATH(b.AddEdge(-1, 0), "CHECK failed");
}

TEST(PreconditionDeathTest, BackwardRequiresScalar) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Var v(Matrix(2, 2, 1.0), true);
  EXPECT_DEATH(v.Backward(), "CHECK failed");
}

TEST(PreconditionDeathTest, UndefinedVarAccessAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Var v;
  EXPECT_DEATH(v.value(), "CHECK failed");
}

}  // namespace
}  // namespace grgad
