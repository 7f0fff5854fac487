#include "src/data/dataset.h"

namespace grgad {

std::vector<int> Dataset::NodeLabels() const {
  std::vector<int> labels(graph.num_nodes(), 0);
  for (const auto& group : anomaly_groups) {
    for (int v : group) {
      GRGAD_CHECK(v >= 0 && v < graph.num_nodes());
      labels[v] = 1;
    }
  }
  return labels;
}

double Dataset::AverageGroupSize() const {
  if (anomaly_groups.empty()) return 0.0;
  double total = 0.0;
  for (const auto& g : anomaly_groups) total += static_cast<double>(g.size());
  return total / static_cast<double>(anomaly_groups.size());
}

}  // namespace grgad
