// Generalizing node-level detectors to Gr-GAD (paper §VII-A3): threshold
// node scores at a contamination rate, then emit the connected components of
// the anomalous node set as groups (the AS-GAE-style adapter the paper
// applies to DOMINANT / DeepAE / ComGA).
#ifndef GRGAD_BASELINES_GROUP_EXTRACTION_H_
#define GRGAD_BASELINES_GROUP_EXTRACTION_H_

#include <memory>
#include <vector>

#include "src/core/group_detector.h"
#include "src/gae/gae_base.h"

namespace grgad {

/// Extraction knobs.
struct GroupExtractionOptions {
  /// Fraction of nodes labeled anomalous before component extraction.
  double contamination = 0.10;
  /// Keep single-node components as (degenerate) groups — N-GAD methods
  /// genuinely produce these, which is what Fig. 5 measures.
  bool keep_singletons = true;
  /// Oversized components are truncated to this many highest-score nodes.
  int max_group_size = 64;
};

/// Scores a group by the mean node score of its members. A group larger
/// than `max_group_size` is first cut to its highest-scoring members, kept
/// in ascending node order. Shared by every group-level baseline.
ScoredGroup CapAndScoreGroup(std::vector<int> members,
                             const std::vector<double>& node_scores,
                             int max_group_size);

/// Thresholds scores, extracts components, scores each group by the mean
/// node score of its members.
std::vector<ScoredGroup> ExtractGroupsFromNodeScores(
    const Graph& g, const std::vector<double>& node_scores,
    const GroupExtractionOptions& options = {});

/// Adapts any NodeScorer (DOMINANT, DeepAE, ComGA, MH-GAE) into a
/// GroupDetector via ExtractGroupsFromNodeScores.
class NodeScorerGroupAdapter : public GroupDetector {
 public:
  NodeScorerGroupAdapter(std::shared_ptr<const NodeScorer> scorer,
                         GroupExtractionOptions options = {});

  std::vector<ScoredGroup> DetectGroups(const Graph& g) const override;
  std::string Name() const override { return scorer_->Name(); }

 private:
  std::shared_ptr<const NodeScorer> scorer_;
  GroupExtractionOptions options_;
};

}  // namespace grgad

#endif  // GRGAD_BASELINES_GROUP_EXTRACTION_H_
