#include "src/gae/anchor.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

namespace grgad {

std::vector<int> SelectAnchorsCapped(const std::vector<double>& node_scores,
                                     double fraction, int max_anchors) {
  GRGAD_CHECK(fraction >= 0.0 && fraction <= 1.0);
  const int n = static_cast<int>(node_scores.size());
  int k = static_cast<int>(std::ceil(fraction * n));
  k = std::min({k, n, std::max(0, max_anchors)});
  if (k == 0) return {};
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  std::partial_sort(order.begin(), order.begin() + k, order.end(),
                    [&node_scores](int a, int b) {
                      if (node_scores[a] != node_scores[b]) {
                        return node_scores[a] > node_scores[b];
                      }
                      return a < b;
                    });
  std::vector<int> anchors(order.begin(), order.begin() + k);
  std::sort(anchors.begin(), anchors.end());
  return anchors;
}

}  // namespace grgad
