#include "src/baselines/group_extraction.h"

#include <algorithm>

#include "src/graph/algorithms.h"
#include "src/graph/traversal_workspace.h"
#include "src/metrics/classification.h"

namespace grgad {

ScoredGroup CapAndScoreGroup(std::vector<int> members,
                             const std::vector<double>& node_scores,
                             int max_group_size) {
  if (static_cast<int>(members.size()) > max_group_size) {
    std::sort(members.begin(), members.end(),
              [&node_scores](int a, int b) {
                return node_scores[a] > node_scores[b];
              });
    members.resize(max_group_size);
    std::sort(members.begin(), members.end());
  }
  double mean_score = 0.0;
  for (int v : members) mean_score += node_scores[v];
  mean_score /= static_cast<double>(members.size());
  return {std::move(members), mean_score};
}

std::vector<ScoredGroup> ExtractGroupsFromNodeScores(
    const Graph& g, const std::vector<double>& node_scores,
    const GroupExtractionOptions& options) {
  GRGAD_CHECK_EQ(node_scores.size(), static_cast<size_t>(g.num_nodes()));
  const std::vector<int> labels =
      LabelsAtContamination(node_scores, options.contamination);
  std::vector<int> anomalous;
  for (int v = 0; v < g.num_nodes(); ++v) {
    if (labels[v] == 1) anomalous.push_back(v);
  }
  // Workspace-backed component extraction: the stamped marks replace a
  // per-call hash set + O(n) seen vector.
  TraversalWorkspacePool::Lease ws =
      TraversalWorkspacePool::Global().Acquire();
  std::vector<ScoredGroup> out;
  for (auto& component : ComponentsOfSubset(g, anomalous, ws.get())) {
    if (!options.keep_singletons && component.size() < 2) continue;
    out.push_back(CapAndScoreGroup(std::move(component), node_scores,
                                   options.max_group_size));
  }
  return out;
}

NodeScorerGroupAdapter::NodeScorerGroupAdapter(
    std::shared_ptr<const NodeScorer> scorer, GroupExtractionOptions options)
    : scorer_(std::move(scorer)), options_(options) {
  GRGAD_CHECK(scorer_ != nullptr);
}

std::vector<ScoredGroup> NodeScorerGroupAdapter::DetectGroups(
    const Graph& g) const {
  return ExtractGroupsFromNodeScores(g, scorer_->FitNodeScores(g), options_);
}

}  // namespace grgad
