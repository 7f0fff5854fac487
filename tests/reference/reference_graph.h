// Allocating graph traversals kept as oracles for the workspace-backed
// product traversals in src/graph/algorithms.h: fresh O(n) dist/parent
// buffers per call and, for Dijkstra, a cost functor evaluated on every
// relaxation. tests/traversal_equivalence_test.cc pins the product
// variants element for element against these. Test-only library, like its
// companion tests/reference/reference_kernels.h.
#ifndef GRGAD_TESTS_REFERENCE_REFERENCE_GRAPH_H_
#define GRGAD_TESTS_REFERENCE_REFERENCE_GRAPH_H_

#include <functional>
#include <utility>
#include <vector>

#include "src/graph/graph.h"

namespace grgad::reference {

/// Every undirected edge of a Graph-shaped `g` as (u, v) with u < v, in
/// ForEachEdge order (the index order of per-edge arrays).
template <typename G>
std::vector<std::pair<int, int>> EdgeList(const G& g) {
  std::vector<std::pair<int, int>> out;
  g.ForEachEdge([&out](int u, int v) { out.emplace_back(u, v); });
  return out;
}

/// Bellman–Ford single-source distances with per-edge weights (in
/// ForEachEdge order, applied symmetrically). Returns false on a negative
/// cycle (distances then undefined).
bool BellmanFord(const Graph& g, int src, const std::vector<double>& weights,
                 std::vector<double>* dist, std::vector<int>* parent);

/// Dijkstra with non-negative costs `cost(u, v)` (must be symmetric). dist
/// is +inf where unreachable; parent[src] == src, -1 where unreachable.
/// `max_cost` (if > 0) prunes expansion beyond that distance.
void Dijkstra(const Graph& g, int src,
              const std::function<double(int, int)>& cost,
              std::vector<double>* dist, std::vector<int>* parent,
              double max_cost = 0.0);

}  // namespace grgad::reference

#endif  // GRGAD_TESTS_REFERENCE_REFERENCE_GRAPH_H_
