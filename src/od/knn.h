// Distance-based detectors: exact k-nearest-neighbor utilities plus the
// classic kNN outlier score (distance to the k-th neighbor).
//
// The distance work routes through src/od/neighbor_index.h: one distance
// sweep per FitScore (GEMM panels) feeding a shared per-row selection.
#ifndef GRGAD_OD_KNN_H_
#define GRGAD_OD_KNN_H_

#include "src/od/detector.h"
#include "src/od/neighbor_index.h"

namespace grgad {

/// Pairwise Euclidean distance matrix (n x n, zero diagonal), via the GEMM
/// identity ‖xᵢ‖²+‖xⱼ‖²−2·xᵢ·xⱼ (panel-streamed into the output, still
/// bitwise symmetric with an exactly zero diagonal).
Matrix PairwiseDistances(const Matrix& x);

/// For each row, indices of its k nearest other rows (ascending distance;
/// ties broken by index). k is clamped to n-1. One distance sweep.
std::vector<std::vector<int>> KNearestNeighbors(const Matrix& x, int k);

/// KNearestNeighbors from a precomputed distance matrix (n x n, zero
/// diagonal) — callers that already hold distances pay no second sweep.
std::vector<std::vector<int>> KNearestNeighborsFromDistances(const Matrix& d,
                                                             int k);

/// kNN outlier detector: score = distance to the k-th nearest neighbor.
class KnnDetector : public OutlierDetector {
 public:
  explicit KnnDetector(int k = 5) : k_(k) {}
  std::vector<double> FitScore(const Matrix& x) override;
  std::vector<double> FitScoreWithIndex(const Matrix& x,
                                        const NeighborIndex& index) override;
  int NeighborsNeeded(int n) const override;
  std::string Name() const override { return "knn"; }

 private:
  int k_;
};

}  // namespace grgad

#endif  // GRGAD_OD_KNN_H_
