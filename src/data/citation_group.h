// Cora-group / CiteSeer-group: synthetic Gr-GAD datasets built the way the
// paper builds them from Cora and CiteSeer (§VII-A1): take a community-
// structured citation graph with bag-of-words attributes, pick anchor nodes,
// and add new nodes that wire the anchors into a topology pattern; new-node
// attributes are an anchor's attributes plus Gaussian noise.
//
// Because the real Cora/CiteSeer downloads are unavailable offline, the
// carrier graph is a stochastic block model matched to their size, density,
// community count, and attribute sparsity (see README.md, "Deviations from
// the paper"); the injection procedure itself follows the paper verbatim.
#ifndef GRGAD_DATA_CITATION_GROUP_H_
#define GRGAD_DATA_CITATION_GROUP_H_

#include "src/data/dataset.h"

namespace grgad {

/// Which citation-network profile to synthesize.
enum class CitationProfile { kCora, kCiteseer };

/// Generates Cora-group (22 groups, avg size ~6.3) or CiteSeer-group
/// (22 groups, avg size ~6.2) per the paper's injection procedure.
Dataset GenCitationGroup(CitationProfile profile,
                         const DatasetOptions& options = {});

}  // namespace grgad

#endif  // GRGAD_DATA_CITATION_GROUP_H_
