// Anchor-node selection: the top fraction of nodes by reconstruction error
// become the seeds of candidate-group sampling (§V-B, §VII-A4).
#ifndef GRGAD_GAE_ANCHOR_H_
#define GRGAD_GAE_ANCHOR_H_

#include <vector>

namespace grgad {

/// Returns the ids of the ceil(fraction * n) highest-scoring nodes, at most
/// `max_anchors` of them (the cap keeps the O(m^2) pair sampling tractable
/// on large graphs), sorted ascending. Ties are broken by node id for
/// determinism.
std::vector<int> SelectAnchorsCapped(const std::vector<double>& node_scores,
                                     double fraction, int max_anchors);

}  // namespace grgad

#endif  // GRGAD_GAE_ANCHOR_H_
