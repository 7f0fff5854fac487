// The evaluation dataset container: an attributed graph plus ground-truth
// anomaly groups (with their planted topology patterns).
#ifndef GRGAD_DATA_DATASET_H_
#define GRGAD_DATA_DATASET_H_

#include <string>
#include <vector>

#include "src/core/types.h"
#include "src/graph/graph.h"

namespace grgad {

/// A benchmark instance mirroring the paper's Table I rows.
struct Dataset {
  std::string name;
  Graph graph;
  /// Ground-truth anomaly groups; each is a sorted node-id list.
  std::vector<std::vector<int>> anomaly_groups;
  /// Planted pattern per group (aligned with anomaly_groups).
  std::vector<TopologyPattern> group_patterns;

  /// Per-node 0/1 labels derived from group membership.
  std::vector<int> NodeLabels() const;

  /// Mean ground-truth group size (the paper's "Avg. size").
  double AverageGroupSize() const;
};

/// Generation knobs common to all generators. Every generator is fully
/// deterministic given the seed.
struct DatasetOptions {
  uint64_t seed = 42;
  /// Attribute width; 0 keeps each generator's default. The paper's raw
  /// bag-of-words widths (1433/3703/3123) are intentionally narrowed by
  /// default for 2-core runtime; see README.md, "Deviations from the
  /// paper".
  int attr_dim = 0;
  /// Uniform scale on node counts (1.0 = paper-matched sizes). Values < 1
  /// shrink datasets proportionally (quick tests / CI).
  double scale = 1.0;
};

}  // namespace grgad

#endif  // GRGAD_DATA_DATASET_H_
