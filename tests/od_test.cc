// Outlier detectors: each must rank planted outliers above inliers on
// Gaussian-cluster data; plus unit tests on internals (ECDF tails, path
// lengths, DBSCAN-free neighbor logic).
#include <algorithm>
#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "src/od/detector.h"
#include "src/od/ecod.h"
#include "src/od/iforest.h"
#include "src/od/knn.h"
#include "src/od/lof.h"
#include "src/od/mad.h"
#include "src/metrics/classification.h"
#include "src/util/rng.h"

namespace grgad {
namespace {

/// 180 inliers around the origin + 20 outliers at distance ~8.
struct PlantedData {
  Matrix x;
  std::vector<int> labels;
};

PlantedData MakePlanted(uint64_t seed, int dim = 4) {
  Rng rng(seed);
  const int n_in = 180, n_out = 20;
  PlantedData data;
  data.x = Matrix(n_in + n_out, dim);
  data.labels.assign(n_in + n_out, 0);
  for (int i = 0; i < n_in; ++i) {
    for (int j = 0; j < dim; ++j) data.x(i, j) = rng.Normal(0.0, 1.0);
  }
  // Scattered outliers (each in its own far-away spot) rather than a second
  // cluster, so that density-based detectors (LOF) see them as outliers too.
  for (int i = n_in; i < n_in + n_out; ++i) {
    data.labels[i] = 1;
    for (int j = 0; j < dim; ++j) {
      const double direction = rng.Bernoulli(0.5) ? 1.0 : -1.0;
      data.x(i, j) = direction * rng.Uniform(6.0, 14.0);
    }
  }
  return data;
}

class DetectorRankingTest
    : public ::testing::TestWithParam<DetectorKind> {};

TEST_P(DetectorRankingTest, PlantedOutliersScoreHigh) {
  const PlantedData data = MakePlanted(33);
  auto detector = MakeOutlierDetector(GetParam(), /*seed=*/5);
  ASSERT_NE(detector, nullptr);
  const auto scores = detector->FitScore(data.x);
  ASSERT_EQ(scores.size(), data.x.rows());
  EXPECT_GT(RocAuc(data.labels, scores), 0.95) << detector->Name();
}

TEST_P(DetectorRankingTest, DeterministicGivenSeed) {
  const PlantedData data = MakePlanted(34);
  auto d1 = MakeOutlierDetector(GetParam(), 9);
  auto d2 = MakeOutlierDetector(GetParam(), 9);
  EXPECT_EQ(d1->FitScore(data.x), d2->FitScore(data.x));
}

INSTANTIATE_TEST_SUITE_P(
    AllDetectors, DetectorRankingTest,
    ::testing::Values(DetectorKind::kEcod, DetectorKind::kLof,
                      DetectorKind::kKnn, DetectorKind::kIsolationForest,
                      DetectorKind::kMad));

TEST(DetectorFactoryTest, ParseNames) {
  DetectorKind kind;
  EXPECT_TRUE(ParseDetectorKind("ecod", &kind));
  EXPECT_EQ(kind, DetectorKind::kEcod);
  EXPECT_TRUE(ParseDetectorKind("lof", &kind));
  EXPECT_TRUE(ParseDetectorKind("knn", &kind));
  EXPECT_TRUE(ParseDetectorKind("iforest", &kind));
  EXPECT_TRUE(ParseDetectorKind("mad", &kind));
  EXPECT_TRUE(ParseDetectorKind("ensemble", &kind));
  EXPECT_EQ(kind, DetectorKind::kEnsemble);
  EXPECT_FALSE(ParseDetectorKind("nope", &kind));
}

TEST(DetectorFactoryTest, NameParseRoundTripCoversEveryKind) {
  // DetectorKindName must invert ParseDetectorKind for every enum value,
  // and every kind must construct through the factory.
  const auto kinds = AllDetectorKinds();
  EXPECT_EQ(kinds.size(), 6u);
  for (DetectorKind kind : kinds) {
    const std::string name = DetectorKindName(kind);
    EXPECT_NE(name, "?");
    DetectorKind parsed;
    ASSERT_TRUE(ParseDetectorKind(name, &parsed)) << name;
    EXPECT_EQ(parsed, kind) << name;
    auto detector = MakeOutlierDetector(kind, /*seed=*/7);
    ASSERT_NE(detector, nullptr) << name;
    EXPECT_FALSE(detector->Name().empty());
  }
}

TEST(EcodTest, JointlyExtremePointScoresHighest) {
  // ECOD tail probabilities are rank-based, so in one dimension the minimum
  // and maximum are equally extreme; a point extreme in *both* dimensions
  // must out-score points extreme in only one.
  Matrix x(9, 2);
  const double vals[9] = {-0.4, -0.3, -0.1, 0.0, 0.1, 0.2, 0.3, 0.4, 9.0};
  for (int i = 0; i < 9; ++i) {
    x(i, 0) = vals[i];
    x(i, 1) = (i == 8) ? 9.0 : -vals[i];  // Row 8 extreme in both dims.
  }
  Ecod ecod;
  const auto scores = ecod.FitScore(x);
  EXPECT_EQ(std::max_element(scores.begin(), scores.end()) - scores.begin(),
            8);
}

TEST(EcodTest, ConstantColumnIsHarmless) {
  Matrix x(4, 2);
  for (int i = 0; i < 4; ++i) {
    x(i, 0) = 1.0;  // Degenerate dimension.
    x(i, 1) = i;
  }
  Ecod ecod;
  const auto scores = ecod.FitScore(x);
  for (double s : scores) EXPECT_TRUE(std::isfinite(s));
}

TEST(KnnTest, NeighborsSortedByDistance) {
  Matrix x(4, 1);
  x(0, 0) = 0.0;
  x(1, 0) = 1.0;
  x(2, 0) = 3.0;
  x(3, 0) = 10.0;
  const NeighborIndex nn = BuildNeighborIndex(x, 2);
  EXPECT_EQ(nn.Neighbor(0, 0), 1);
  EXPECT_EQ(nn.Neighbor(0, 1), 2);
  EXPECT_EQ(nn.Neighbor(3, 0), 2);
  EXPECT_EQ(nn.Neighbor(3, 1), 1);
  EXPECT_DOUBLE_EQ(nn.Distance(3, 0), 7.0);
}

TEST(KnnTest, KClampedToNMinusOne) {
  Matrix x(3, 1);
  x(1, 0) = 1.0;
  x(2, 0) = 2.0;
  EXPECT_EQ(BuildNeighborIndex(x, 99).k, 2);
  KnnDetector det(99);
  EXPECT_EQ(det.FitScore(x).size(), 3u);
}

TEST(LofTest, InliersScoreNearOne) {
  const PlantedData data = MakePlanted(35);
  Lof lof(10);
  const auto scores = lof.FitScore(data.x);
  double inlier_sum = 0.0;
  int inlier_count = 0;
  for (size_t i = 0; i < scores.size(); ++i) {
    if (data.labels[i] == 0) {
      inlier_sum += scores[i];
      ++inlier_count;
    }
  }
  EXPECT_NEAR(inlier_sum / inlier_count, 1.0, 0.2);
}

TEST(LofTest, TinyInputsDoNotCrash) {
  Matrix x(2, 2, 0.5);
  Lof lof;
  const auto scores = lof.FitScore(x);
  EXPECT_EQ(scores.size(), 2u);
}

TEST(IsolationForestTest, AveragePathLength) {
  EXPECT_DOUBLE_EQ(AveragePathLength(1), 0.0);
  EXPECT_DOUBLE_EQ(AveragePathLength(2), 1.0);
  EXPECT_GT(AveragePathLength(256), AveragePathLength(64));
}

TEST(IsolationForestTest, ScoresInUnitInterval) {
  const PlantedData data = MakePlanted(36);
  IsolationForestOptions options;
  options.num_trees = 50;
  IsolationForest forest(options);
  for (double s : forest.FitScore(data.x)) {
    EXPECT_GT(s, 0.0);
    EXPECT_LT(s, 1.0);
  }
}

TEST(MadTest, RobustToSingleOutlier) {
  Matrix x(11, 1);
  for (int i = 0; i < 10; ++i) x(i, 0) = i * 0.01;
  x(10, 0) = 1000.0;
  MadDetector mad;
  const auto scores = mad.FitScore(x);
  EXPECT_EQ(std::max_element(scores.begin(), scores.end()) - scores.begin(),
            10);
  // The outlier's robust z-score is enormous.
  EXPECT_GT(scores[10], 100.0);
}

}  // namespace
}  // namespace grgad
