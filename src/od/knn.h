// The classic distance-based kNN outlier score (distance to the k-th
// nearest neighbor).
//
// The distance work routes through src/od/neighbor_index.h: one distance
// sweep per FitScore (GEMM panels) feeding a shared per-row selection.
#ifndef GRGAD_OD_KNN_H_
#define GRGAD_OD_KNN_H_

#include "src/od/detector.h"
#include "src/od/neighbor_index.h"

namespace grgad {

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
