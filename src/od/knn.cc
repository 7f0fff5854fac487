#include "src/od/knn.h"

#include <algorithm>

#include "src/util/check.h"

namespace grgad {

int KnnDetector::NeighborsNeeded(int n) const {
  return n > 1 ? std::min(k_, n - 1) : 0;
}

std::vector<double> KnnDetector::FitScore(const Matrix& x) {
  const int n = static_cast<int>(x.rows());
  GRGAD_CHECK_GT(n, 0);
  if (n == 1) return {0.0};
  return FitScoreWithIndex(x, BuildNeighborIndex(x, NeighborsNeeded(n)));
}

std::vector<double> KnnDetector::FitScoreWithIndex(const Matrix& x,
                                                   const NeighborIndex& index) {
  const int n = static_cast<int>(x.rows());
  GRGAD_CHECK_GT(n, 0);
  if (n == 1) return {0.0};
  const int k = std::min(k_, n - 1);
  GRGAD_CHECK(index.n == n && index.k >= k);
  std::vector<double> score(n);
  for (int i = 0; i < n; ++i) score[i] = index.Distance(i, k - 1);
  return score;
}

}  // namespace grgad
