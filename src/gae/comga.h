// ComGA (Luo et al., WSDM 2022): community-aware attributed-graph anomaly
// detection. A community autoencoder over modularity features feeds its
// hidden representation into the GCN-GAE encoder (gated fusion), so the
// model can separate community-structure deviations from local noise.
//
// Scalability note (README.md, "Deviations from the paper"): the original
// autoencodes the dense n x n modularity matrix B; we autoencode the random
// projection B R (computed without materializing B), which preserves the
// community fingerprint per node at O(nk + |E|k) cost.
#ifndef GRGAD_GAE_COMGA_H_
#define GRGAD_GAE_COMGA_H_

#include "src/gae/gae_base.h"

namespace grgad {

/// ComGA hyperparameters.
struct ComGaOptions {
  int modularity_dim = 32;  ///< Projection width of B.
  int hidden_dim = 64;
  int embed_dim = 64;
  int epochs = 80;
  double lr = 5e-3;
  double lambda = 0.3;      ///< Structure-vs-attribute weight (Eqn. 1).
  double community_weight = 0.15;  ///< Community-error share of the score.
  int neg_per_pos = 1;
  size_t max_pairs = 200000;
  uint64_t seed = 3;
};

/// Community-aware GAE node scorer.
class ComGa : public NodeScorer {
 public:
  explicit ComGa(ComGaOptions options = {});

  std::vector<double> FitNodeScores(const Graph& g) const override;
  std::string Name() const override { return "comga"; }

 private:
  ComGaOptions options_;
};

}  // namespace grgad

#endif  // GRGAD_GAE_COMGA_H_
