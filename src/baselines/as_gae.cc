#include "src/baselines/as_gae.h"

#include <algorithm>
#include <cmath>

#include "src/baselines/group_extraction.h"
#include "src/graph/algorithms.h"
#include "src/graph/traversal_workspace.h"

namespace grgad {

AsGae::AsGae(AsGaeOptions options) : options_(options) {}

std::vector<ScoredGroup> AsGae::DetectGroups(const Graph& g) const {
  GcnGae engine(options_.gae);
  const std::vector<double> scores = engine.Fit(g).node_errors;
  const int n = g.num_nodes();
  // Mean + z * std threshold.
  double mean = 0.0;
  for (double s : scores) mean += s;
  mean /= std::max(1, n);
  double var = 0.0;
  for (double s : scores) var += (s - mean) * (s - mean);
  const double stddev = std::sqrt(var / std::max(1, n));
  const double threshold = mean + options_.z_threshold * stddev;
  std::vector<int> anomalous;
  for (int v = 0; v < n; ++v) {
    if (scores[v] > threshold) anomalous.push_back(v);
  }
  // One-hop closure: absorb moderately suspicious neighbors.
  std::vector<double> sorted_scores = scores;
  std::sort(sorted_scores.begin(), sorted_scores.end());
  const double closure_cut =
      sorted_scores[static_cast<size_t>(options_.closure_quantile *
                                        (n - 1))];
  std::vector<uint8_t> in_set(n, 0);
  for (int v : anomalous) in_set[v] = 1;
  std::vector<int> closure = anomalous;
  for (int v : anomalous) {
    for (int w : g.Neighbors(v)) {
      if (!in_set[w] && scores[w] >= closure_cut) {
        in_set[w] = 1;
        closure.push_back(w);
      }
    }
  }
  std::sort(closure.begin(), closure.end());
  TraversalWorkspacePool::Lease ws =
      TraversalWorkspacePool::Global().Acquire();
  std::vector<ScoredGroup> out;
  for (auto& component : ComponentsOfSubset(g, closure, ws.get())) {
    out.push_back(CapAndScoreGroup(std::move(component), scores,
                                   options_.max_group_size));
  }
  return out;
}

}  // namespace grgad
