// Topology-pattern-aware augmentations (paper Alg. 2) plus the three
// conventional GCL augmentations they are compared against in Fig. 6.
//
// PPA (Pattern Preserving Augmentation) expands every found pattern without
// breaking it: trees gain a child under the root, paths are prolonged at an
// endpoint, cycles are extended through a new node bridging two members —
// new-node attributes are the average of the pattern's members. PBA
// (Pattern Breaking Augmentation) destroys each pattern minimally: tree
// roots and path middles are dropped, cycles lose two random nodes. ND/ER/FM
// are the usual random node-drop / edge-removal / feature-mask baselines.
#ifndef GRGAD_GCL_AUGMENTATIONS_H_
#define GRGAD_GCL_AUGMENTATIONS_H_

#include <string>

#include "src/graph/graph.h"
#include "src/graph/subgraph_view.h"
#include "src/sampling/pattern_search.h"
#include "src/util/rng.h"

namespace grgad {

/// Augmentations available to TPGCL (Fig. 6 rows/columns).
enum class AugmentationKind {
  kPba,          ///< Pattern Breaking Augmentation (paper; negative views)
  kPpa,          ///< Pattern Preserving Augmentation (paper; positive views)
  kNodeDrop,     ///< ND: drop random nodes
  kEdgeRemove,   ///< ER: remove random edges
  kFeatureMask,  ///< FM: zero random feature dimensions
};

/// "PBA" | "PPA" | "ND" | "ER" | "FM".
const char* ToString(AugmentationKind kind);

/// Inverse of ToString(AugmentationKind); false for unknown names.
bool ParseAugmentationKind(const std::string& name, AugmentationKind* out);

/// Applies an augmentation to a candidate group's induced attributed graph,
/// read straight off a subgraph view (no materialization).
///
/// `patterns` are the group's found topology patterns (only consulted by
/// PPA/PBA; pass the SearchPatterns result). The returned graph always has
/// at least one node. Randomness comes from `rng` only.
Graph Augment(const SubgraphView& group, AugmentationKind kind,
              const FoundPatterns& patterns, Rng* rng);

/// Same augmentation on a materialized group — identical output and
/// identical `rng` consumption. The oracle the view form is pinned against
/// (tests/traversal_equivalence_test.cc); the product reads views.
Graph Augment(const Graph& group, AugmentationKind kind,
              const FoundPatterns& patterns, Rng* rng);

}  // namespace grgad

#endif  // GRGAD_GCL_AUGMENTATIONS_H_
