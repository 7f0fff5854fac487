// Determinism contract of the scoring stage (see PERF.md, "Scoring
// stage"):
//   - every detector's scores are bitwise identical across GRGAD_THREADS
//     and across repeated runs;
//   - the standalone reference detectors (tests/reference/reference_detectors.h)
//     agree at the score-rank level for the GEMM-distance detectors (kNN,
//     LOF) and bitwise for ECOD and GraphSNN;
//   - kNN and LOF perform exactly ONE pairwise-distance sweep per FitScore
//     (the references compute the full matrix twice);
//   - sharing one NeighborIndex across ensemble members changes nothing.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/stages.h"
#include "src/data/example_graph.h"
#include "src/graph/graphsnn.h"
#include "src/od/detector.h"
#include "src/od/ecod.h"
#include "src/od/ensemble.h"
#include "src/od/knn.h"
#include "src/od/lof.h"
#include "src/od/neighbor_index.h"
#include "tests/reference/reference_detectors.h"
#include "src/util/rng.h"
#include "tests/kernel_test_util.h"

namespace grgad {
namespace {

using testing::ScopedDegree;

/// Gaussian inliers + scattered far-away outliers, sized past one distance
/// panel (256 rows) so the panel loop's seams are exercised.
Matrix PlantedEmbeddings(uint64_t seed, int n_in = 300, int n_out = 40,
                         int dim = 8) {
  Rng rng(seed);
  Matrix x(n_in + n_out, dim);
  for (int i = 0; i < n_in; ++i) {
    for (int j = 0; j < dim; ++j) x(i, j) = rng.Normal(0.0, 1.0);
  }
  for (int i = n_in; i < n_in + n_out; ++i) {
    for (int j = 0; j < dim; ++j) {
      const double direction = rng.Bernoulli(0.5) ? 1.0 : -1.0;
      x(i, j) = direction * rng.Uniform(6.0, 14.0);
    }
  }
  return x;
}

std::vector<double> Scores(DetectorKind kind, const Matrix& x,
                           uint64_t seed = 5) {
  auto detector = MakeOutlierDetector(kind, seed);
  return detector->FitScore(x);
}

TEST(ScoringDeterminismTest, BitwiseIdenticalAcrossThreadDegreesAndRuns) {
  const Matrix x = PlantedEmbeddings(101);
  for (DetectorKind kind : AllDetectorKinds()) {
    std::vector<double> at_one, at_four, again;
    {
      ScopedDegree degree(1);
      at_one = Scores(kind, x);
    }
    {
      ScopedDegree degree(4);
      at_four = Scores(kind, x);
      again = Scores(kind, x);
    }
    EXPECT_EQ(at_one, at_four) << DetectorKindName(kind);
    EXPECT_EQ(at_four, again) << DetectorKindName(kind);
  }
}

TEST(ScoringDeterminismTest, KnnAndLofMatchReferenceAtRankLevel) {
  // GEMM distances differ from the references' scalar distances only in FP
  // contraction, so the score ranks match exactly.
  const Matrix x = PlantedEmbeddings(102);
  for (int k : {5, 10}) {
    EXPECT_EQ(RankNormalize(KnnDetector(k).FitScore(x)),
              RankNormalize(reference::KnnFitScore(x, k)))
        << "knn k=" << k;
    EXPECT_EQ(RankNormalize(Lof(k).FitScore(x)),
              RankNormalize(reference::LofFitScore(x, k)))
        << "lof k=" << k;
  }
}

TEST(ScoringDeterminismTest, EcodBitwiseEqualsReference) {
  // ECOD reduces per-column contributions in ascending column order — the
  // reference's exact accumulation — so it is bitwise, not merely rank,
  // identical (the pipeline's default detector must not move). The
  // degenerate shapes (one sample, one column) take the same path.
  // Ties take the run walk over the sorted column: the rounded copy makes
  // long runs of equal values (±0 among them), and the constant columns are
  // one run each.
  Ecod ecod;
  const Matrix planted = PlantedEmbeddings(103);
  Matrix ties = planted;
  for (size_t i = 0; i < ties.rows(); ++i) {
    for (size_t j = 0; j < ties.cols(); ++j) {
      ties(i, j) = std::round(ties(i, j) * 0.5) * 2.0;
    }
  }
  Matrix constant(70, 5);
  for (size_t i = 0; i < constant.rows(); ++i) {
    for (size_t j = 0; j < constant.cols(); ++j) {
      constant(i, j) = static_cast<double>(j) - 2.0;
    }
  }
  Rng rng(3);
  for (const Matrix& x :
       {planted, ties, constant, Matrix::Gaussian(1, 6, &rng),
        Matrix::Gaussian(40, 1, &rng), Matrix::Gaussian(1, 1, &rng)}) {
    for (int degree : {1, 4}) {
      ScopedDegree scoped(degree);
      EXPECT_EQ(ecod.FitScore(x), reference::EcodFitScore(x))
          << x.rows() << "x" << x.cols() << " degree=" << degree;
    }
  }
}

TEST(ScoringDeterminismTest, KnnAndLofComputeDistancesExactlyOnce) {
  const Matrix x = PlantedEmbeddings(105, 60, 8, 4);
  internal::ResetDistanceSweeps();
  KnnDetector(5).FitScore(x);
  EXPECT_EQ(internal::DistanceSweeps(), 1u) << "knn";
  internal::ResetDistanceSweeps();
  Lof(10).FitScore(x);
  EXPECT_EQ(internal::DistanceSweeps(), 1u) << "lof";
  // The shared-index ensemble adds no sweeps beyond its single build.
  internal::ResetDistanceSweeps();
  EnsembleDetector::MakeDefault(5)->FitScore(x);
  EXPECT_EQ(internal::DistanceSweeps(), 1u) << "ensemble";
}

TEST(ScoringDeterminismTest, IndexSelectsReferenceNeighbors) {
  // GEMM distances differ from scalar distances only in FP contraction, so
  // on generic data the selected neighbor ids (and their order) match the
  // reference selection exactly.
  const Matrix x = PlantedEmbeddings(106);
  const int k = 10;
  const NeighborIndex fast = BuildNeighborIndex(x, k);
  const auto ref_lists = reference::KNearestNeighbors(x, k);
  ASSERT_EQ(ref_lists.size(), static_cast<size_t>(fast.n));
  for (int i = 0; i < fast.n; ++i) {
    ASSERT_EQ(ref_lists[i].size(), static_cast<size_t>(k));
    for (int pos = 0; pos < k; ++pos) {
      EXPECT_EQ(fast.Neighbor(i, pos), ref_lists[i][pos]) << i << "," << pos;
    }
  }
  // A k-consumer reading a prefix of a larger shared index sees exactly its
  // own index.
  const NeighborIndex wide = BuildNeighborIndex(x, 2 * k);
  for (int i = 0; i < fast.n; ++i) {
    for (int pos = 0; pos < k; ++pos) {
      EXPECT_EQ(wide.Neighbor(i, pos), fast.Neighbor(i, pos));
      EXPECT_EQ(wide.Distance(i, pos), fast.Distance(i, pos));
    }
  }
}

TEST(ScoringDeterminismTest, DistancePanelsSymmetricZeroDiag) {
  const Matrix x = PlantedEmbeddings(107);
  // Assemble the full matrix from the panels BuildNeighborIndex selects on.
  Matrix d(x.rows(), x.rows());
  internal::ForEachDistancePanel(
      x, [&d](size_t i0, size_t rows, const Matrix& panel) {
        for (size_t r = 0; r < rows; ++r) {
          for (size_t j = 0; j < d.cols(); ++j) d(i0 + r, j) = panel(r, j);
        }
      });
  for (size_t i = 0; i < x.rows(); i += 37) {
    EXPECT_EQ(d(i, i), 0.0);
    for (size_t j = 0; j < x.rows(); j += 11) {
      EXPECT_EQ(d(i, j), d(j, i));
    }
  }
  // Within FP-contraction tolerance of the scalar reference distances.
  EXPECT_TRUE(d.ApproxEquals(reference::PairwiseDistances(x), 1e-9));
}

TEST(ScoringDeterminismTest, SharedIndexMatchesStandaloneMembers) {
  // An ensemble scoring every member through one shared index must combine
  // exactly the scores the members produce standalone (each building its
  // own index).
  const Matrix x = PlantedEmbeddings(108, 150, 20, 6);
  std::vector<std::unique_ptr<OutlierDetector>> members;
  members.push_back(std::make_unique<KnnDetector>(5));
  members.push_back(std::make_unique<Lof>(10));
  EnsembleDetector ensemble(std::move(members));
  const auto combined = ensemble.FitScore(x);

  const auto knn_ranks = RankNormalize(KnnDetector(5).FitScore(x));
  const auto lof_ranks = RankNormalize(Lof(10).FitScore(x));
  ASSERT_EQ(combined.size(), knn_ranks.size());
  for (size_t i = 0; i < combined.size(); ++i) {
    EXPECT_EQ(combined[i], 0.5 * (knn_ranks[i] + lof_ranks[i])) << i;
  }
}

TEST(ScoringDeterminismTest, GraphSnnMatchesReferenceOnExampleGraph) {
  const Dataset d = GenExampleGraph({});
  const std::vector<double> want =
      reference::GraphSnnEdgeWeights(d.graph, 1.0);
  for (int degree : {1, 4}) {
    ScopedDegree scoped(degree);
    EXPECT_EQ(GraphSnnEdgeWeights(d.graph, 1.0), want) << degree;
  }
}

TEST(ScoringDeterminismTest, ScoringStageProfileEmitsSubStageTimings) {
  Rng rng(7);
  const Matrix embeddings = Matrix::Gaussian(24, 4, &rng);
  std::vector<std::vector<int>> groups(24);
  for (int i = 0; i < 24; ++i) groups[i] = {i};
  TpGrGadOptions options;
  options.detector = DetectorKind::kLof;

  RunContext plain;
  ASSERT_TRUE(RunScoringStage(embeddings, groups, options, &plain).ok());
  ASSERT_EQ(plain.stage_timings().size(), 1u);
  EXPECT_EQ(plain.stage_timings()[0].stage, "scoring");

  RunContext profiled;
  profiled.profile = true;
  ASSERT_TRUE(RunScoringStage(embeddings, groups, options, &profiled).ok());
  std::vector<std::string> stages;
  for (const StageTiming& t : profiled.stage_timings()) {
    stages.push_back(t.stage);
  }
  EXPECT_EQ(stages, (std::vector<std::string>{"scoring/neighbors",
                                              "scoring/detect", "scoring"}));
}

}  // namespace
}  // namespace grgad
