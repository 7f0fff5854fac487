#include "src/graph/graphsnn.h"

#include <algorithm>
#include <cmath>

#include "src/util/parallel.h"

namespace grgad {

namespace {

/// Scratch buffers for one edge-weight worker: reused across every edge a
/// chunk processes instead of the seed's three fresh vectors per edge.
struct OverlapScratch {
  std::vector<int> cu;
  std::vector<int> cv;
  std::vector<int> overlap;
};

/// Fills scratch->overlap with the sorted intersection of the closed
/// neighborhoods of u and v. Same merge as the seed loop, allocation-free
/// once the scratch has grown to the max degree.
void ClosedNeighborhoodOverlap(const Graph& g, int u, int v,
                               OverlapScratch* scratch) {
  auto nu = g.Neighbors(u);
  auto nv = g.Neighbors(v);
  scratch->cu.assign(nu.begin(), nu.end());
  scratch->cv.assign(nv.begin(), nv.end());
  scratch->cu.insert(
      std::lower_bound(scratch->cu.begin(), scratch->cu.end(), u), u);
  scratch->cv.insert(
      std::lower_bound(scratch->cv.begin(), scratch->cv.end(), v), v);
  scratch->overlap.clear();
  std::set_intersection(scratch->cu.begin(), scratch->cu.end(),
                        scratch->cv.begin(), scratch->cv.end(),
                        std::back_inserter(scratch->overlap));
}

/// Number of edges of g inside `nodes` (sorted).
int EdgesWithin(const Graph& g, const std::vector<int>& nodes) {
  int count = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    auto nb = g.Neighbors(nodes[i]);
    for (int w : nb) {
      if (w > nodes[i] &&
          std::binary_search(nodes.begin(), nodes.end(), w)) {
        ++count;
      }
    }
  }
  return count;
}

}  // namespace

std::vector<double> GraphSnnEdgeWeights(const Graph& g, double lambda) {
  std::vector<double> weights(g.num_edges(), 0.0);
  // Each edge's weight is a pure function of the graph, so edges partition
  // freely across the pool; per-chunk scratch keeps the hot loop free of
  // per-edge vector allocations. Per-edge arithmetic does not depend on the
  // chunking, so weights are bitwise equal at any GRGAD_THREADS (MH-GAE
  // trains against this matrix — training goldens depend on that equality).
  auto weigh_edge = [&](size_t e, int u, int v, OverlapScratch* scratch) {
    ClosedNeighborhoodOverlap(g, u, v, scratch);
    const double nv = static_cast<double>(scratch->overlap.size());
    if (nv < 2.0) return;  // Denominator |V|*(|V|-1) undefined/zero.
    const double ne = EdgesWithin(g, scratch->overlap);
    weights[e] = ne / (nv * (nv - 1.0)) * std::pow(nv, lambda);
  };
  // Chunked pool loop keyed by node: node u's up-edges (v > u) occupy a
  // consecutive index range in ForEachEdge order, so an O(n) prefix sum over
  // per-node up-degrees replaces a materialized O(E) pair vector — each
  // worker streams its nodes' rows straight off the CSR. Writes go to
  // distinct weights[e] slots and the per-edge arithmetic is untouched, so
  // the bitwise contract above holds.
  std::vector<size_t> up_offset(static_cast<size_t>(g.num_nodes()) + 1, 0);
  for (int u = 0; u < g.num_nodes(); ++u) {
    auto nb = g.Neighbors(u);
    up_offset[u + 1] =
        up_offset[u] +
        static_cast<size_t>(nb.end() -
                            std::upper_bound(nb.begin(), nb.end(), u));
  }
  ParallelFor(static_cast<size_t>(g.num_nodes()), 8,
              [&](size_t begin, size_t end) {
                OverlapScratch scratch;
                for (size_t un = begin; un < end; ++un) {
                  const int u = static_cast<int>(un);
                  size_t e = up_offset[un];
                  for (int v : g.Neighbors(u)) {
                    if (v > u) weigh_edge(e++, u, v, &scratch);
                  }
                }
              });
  return weights;
}

SparseMatrix GraphSnnAdjacency(const Graph& g,
                               const GraphSnnOptions& options) {
  const std::vector<double> weights =
      GraphSnnEdgeWeights(g, options.lambda);
  std::vector<Triplet> t;
  t.reserve(weights.size() * 2);
  size_t e = 0;
  g.ForEachEdge([&](int u, int v) {
    t.push_back({u, v, weights[e]});
    t.push_back({v, u, weights[e]});
    ++e;
  });
  SparseMatrix out =
      SparseMatrix::FromTriplets(g.num_nodes(), g.num_nodes(), std::move(t));
  if (options.max_normalize) out = out.MaxNormalized();
  return out;
}

}  // namespace grgad
