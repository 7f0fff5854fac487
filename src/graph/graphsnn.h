// GraphSNN weighted adjacency Ã (paper Eqn. (4), after Wijesinghe & Wang).
//
// For every edge (v, u), the overlap subgraph S_vu = S_v ∩ S_u of the two
// closed neighborhood subgraphs determines a structural weight
//
//   Ã_vu = |E_vu| / (|V_vu| * (|V_vu| - 1)) * |V_vu|^λ,
//
// which scores how strongly the edge is embedded in shared local structure.
// MH-GAE uses the (max-normalized) Ã as its reconstruction objective so the
// autoencoder must explain structure beyond one-hop adjacency — this is the
// paper's preferred way of capturing long-range inconsistency.
#ifndef GRGAD_GRAPH_GRAPHSNN_H_
#define GRGAD_GRAPH_GRAPHSNN_H_

#include "src/graph/graph.h"
#include "src/tensor/sparse.h"

namespace grgad {

/// Options for the Ã computation.
struct GraphSnnOptions {
  /// Exponent λ on the overlap size (paper leaves it a hyperparameter; the
  /// GraphSNN reference uses 1).
  double lambda = 1.0;
  /// When true, the result is scaled so the maximum weight is 1 (the form
  /// used as a reconstruction target).
  bool max_normalize = true;
};

/// Computes the GraphSNN weighted adjacency Ã of `g`. Symmetric; zero
/// diagonal; edges whose overlap has fewer than 2 vertices receive weight 0
/// but are kept as explicit entries so the sparsity pattern still matches A.
SparseMatrix GraphSnnAdjacency(const Graph& g,
                               const GraphSnnOptions& options = {});

/// Structural coefficients per edge in ForEachEdge order (testing hook).
/// Edge-parallel with per-worker scratch; bitwise identical across
/// GRGAD_THREADS.
std::vector<double> GraphSnnEdgeWeights(const Graph& g, double lambda);

}  // namespace grgad

#endif  // GRGAD_GRAPH_GRAPHSNN_H_
