// Classic graph algorithms backing candidate-group sampling (Alg. 1),
// topology-pattern search (Alg. 2), and the baselines' group extraction.
//
// Most traversals have a workspace-backed form that accepts a
// TraversalWorkspace and is allocation-free at steady state (epoch-stamped
// marks instead of O(n) clears, reusable frontier/heap/stack buffers). Its
// results are element-for-element identical to the allocating seed shape:
// the allocating template next to it here, or the oracle in
// tests/reference/reference_graph.h (tests/traversal_equivalence_test.cc).
//
// The traversals consumed by pattern search (ShortestPath, BuildBfsTree,
// CyclesThrough) are templates over any Graph-shaped type so they run on
// both `Graph` and the non-materializing `SubgraphView`.
#ifndef GRGAD_GRAPH_ALGORITHMS_H_
#define GRGAD_GRAPH_ALGORITHMS_H_

#include <algorithm>
#include <limits>
#include <span>
#include <vector>

#include "src/graph/graph.h"
#include "src/graph/traversal_workspace.h"

namespace grgad {

// kUnreachable (unreachable marker in distance vectors) historically lived
// here; it is now defined in traversal_workspace.h and re-exported.

/// Shortest path src -> dst as a node sequence (inclusive), empty when
/// unreachable. Unweighted graphs: BFS back-pointers. Works on Graph and
/// SubgraphView.
template <typename G>
std::vector<int> ShortestPath(const G& g, int src, int dst) {
  GRGAD_CHECK(src >= 0 && src < g.num_nodes());
  GRGAD_CHECK(dst >= 0 && dst < g.num_nodes());
  if (src == dst) return {src};
  std::vector<int> parent(g.num_nodes(), -1);
  std::vector<int> queue = {src};
  parent[src] = src;
  for (size_t head = 0; head < queue.size(); ++head) {
    const int u = queue[head];
    for (int w : g.Neighbors(u)) {
      if (parent[w] != -1) continue;
      parent[w] = u;
      if (w == dst) {
        std::vector<int> path = {dst};
        for (int v = dst; v != src; v = parent[v]) path.push_back(parent[v]);
        std::reverse(path.begin(), path.end());
        return path;
      }
      queue.push_back(w);
    }
  }
  return {};
}

/// Bellman–Ford single-source distances with per-edge weights (indexed in
/// ForEachEdge order, applied symmetrically), streamed off the CSR with no
/// O(E) edge vector. Used for weighted path search; on unit weights it
/// reduces to BFS distances. dist/parent via ws->Dist(v)/ws->Parent(v).
/// Returns false on a negative cycle (distances then undefined).
bool BellmanFord(const Graph& g, int src, const std::vector<double>& weights,
                 TraversalWorkspace* ws);

/// Dijkstra single-source shortest paths with precomputed non-negative
/// per-adjacency-slot costs: slot_costs[g.AdjOffset(u) + i] is the cost of
/// the directed traversal u -> Neighbors(u)[i] (size g.num_adj_slots()).
/// Precomputing the slots once per sampling call replaces the seed's
/// cost-functor re-evaluation on every relaxation attempt of every anchor.
/// dist is +inf where unreachable, parent[src] == src; both via
/// ws->Dist(v)/ws->Parent(v). `max_cost` (if > 0) prunes expansion beyond
/// that distance.
void Dijkstra(const Graph& g, int src, std::span<const double> slot_costs,
              double max_cost, TraversalWorkspace* ws);

/// BFS tree of depth <= depth rooted at root: parent[v] for every reached v
/// (parent[root] == root), kUnreachable distances elsewhere.
struct BfsTree {
  std::vector<int> parent;  ///< -1 where unreached, root maps to itself.
  std::vector<int> depth;   ///< kUnreachable where unreached.
  std::vector<int> order;   ///< Visit order (root first).
};
template <typename G>
BfsTree BuildBfsTree(const G& g, int root, int max_depth) {
  GRGAD_CHECK(root >= 0 && root < g.num_nodes());
  BfsTree tree;
  tree.parent.assign(g.num_nodes(), -1);
  tree.depth.assign(g.num_nodes(), kUnreachable);
  tree.parent[root] = root;
  tree.depth[root] = 0;
  tree.order.push_back(root);
  for (size_t head = 0; head < tree.order.size(); ++head) {
    const int u = tree.order[head];
    if (max_depth >= 0 && tree.depth[u] >= max_depth) continue;
    for (int w : g.Neighbors(u)) {
      if (tree.parent[w] != -1) continue;
      tree.parent[w] = u;
      tree.depth[w] = tree.depth[u] + 1;
      tree.order.push_back(w);
    }
  }
  return tree;
}

/// Workspace-backed BFS tree: parent/depth via ws->Parent(v)/ws->Hop(v),
/// visit order (root first) in ws->Order().
template <typename G>
void BuildBfsTree(const G& g, int root, int max_depth,
                  TraversalWorkspace* ws) {
  GRGAD_CHECK(root >= 0 && root < g.num_nodes());
  ws->Begin(g.num_nodes());
  ws->Mark(root);
  ws->parent[root] = root;
  ws->hop[root] = 0;
  ws->order.push_back(root);
  for (size_t head = 0; head < ws->order.size(); ++head) {
    const int u = ws->order[head];
    if (max_depth >= 0 && ws->hop[u] >= max_depth) continue;
    for (int w : g.Neighbors(u)) {
      if (ws->Seen(w)) continue;
      ws->Mark(w);
      ws->parent[w] = u;
      ws->hop[w] = ws->hop[u] + 1;
      ws->order.push_back(w);
    }
  }
}

/// Partitions `nodes` into the connected components of the subgraph they
/// induce; each returned group is sorted.
std::vector<std::vector<int>> ComponentsOfSubset(const Graph& g,
                                                 const std::vector<int>& nodes);

/// Workspace-backed ComponentsOfSubset (identical output): subset membership
/// uses the secondary mark set instead of a per-call hash set.
std::vector<std::vector<int>> ComponentsOfSubset(const Graph& g,
                                                 const std::vector<int>& nodes,
                                                 TraversalWorkspace* ws);

namespace internal {

/// Canonical form of a cycle through v: rotate so v is first, then pick the
/// lexicographically smaller of the two directions.
inline std::vector<int> CanonicalCycle(std::vector<int> cycle) {
  // cycle[0] is already v by construction of the DFS.
  std::vector<int> reversed = {cycle[0]};
  reversed.insert(reversed.end(), cycle.rbegin(), cycle.rend() - 1);
  return std::min(cycle, reversed);
}

}  // namespace internal

/// Enumerates simple cycles through `v` with length in [3, max_len], up to
/// max_cycles. Cycles are canonicalized (start at v, lexicographically
/// smaller direction) and deduplicated. DFS with path-blocking: output
/// sensitive, matching the role of Birmelé et al.'s optimal cycle listing in
/// the paper at the small cycle counts of these graphs. `max_steps` bounds
/// the DFS expansions (simple-path counts grow exponentially with max_len on
/// dense regions); enumeration is truncated deterministically when hit.
/// Works on Graph and SubgraphView.
template <typename G>
std::vector<std::vector<int>> CyclesThrough(const G& g, int v, int max_len,
                                            int max_cycles = 64,
                                            int64_t max_steps = 200000) {
  GRGAD_CHECK(v >= 0 && v < g.num_nodes());
  GRGAD_CHECK_GE(max_len, 3);
  std::vector<std::vector<int>> out;
  std::vector<uint8_t> on_path(g.num_nodes(), 0);
  std::vector<int> path = {v};
  on_path[v] = 1;
  // Iterative DFS with explicit neighbor cursors. Only expand nodes > v
  // cannot be required (cycles may pass through smaller ids), so dedupe via
  // canonical forms instead.
  std::vector<std::vector<int>> seen;
  std::vector<size_t> cursor = {0};
  int64_t steps = 0;
  while (!path.empty() && ++steps <= max_steps &&
         out.size() < static_cast<size_t>(max_cycles)) {
    const int u = path.back();
    auto nb = g.Neighbors(u);
    if (cursor.back() >= nb.size()) {
      on_path[u] = 0;
      path.pop_back();
      cursor.pop_back();
      continue;
    }
    const int w = nb[cursor.back()++];
    if (w == v && path.size() >= 3) {
      std::vector<int> cyc = internal::CanonicalCycle(path);
      if (std::find(seen.begin(), seen.end(), cyc) == seen.end()) {
        seen.push_back(cyc);
        out.push_back(std::move(cyc));
      }
      continue;
    }
    if (on_path[w] || path.size() >= static_cast<size_t>(max_len)) continue;
    path.push_back(w);
    on_path[w] = 1;
    cursor.push_back(0);
  }
  return out;
}

/// Workspace-backed cycle enumeration: identical cycles, returned as a view
/// of workspace-owned storage (valid until the next traversal on `ws`). The
/// DFS stack, on-path marks, and output slots are all reused.
template <typename G>
std::span<const std::vector<int>> CyclesThrough(const G& g, int v, int max_len,
                                                int max_cycles,
                                                int64_t max_steps,
                                                TraversalWorkspace* ws) {
  GRGAD_CHECK(v >= 0 && v < g.num_nodes());
  GRGAD_CHECK_GE(max_len, 3);
  ws->Begin(g.num_nodes());
  ws->ReserveDepth(static_cast<size_t>(max_len) + 1);
  ws->path.clear();
  ws->cursor.clear();
  ws->path.push_back(v);
  ws->Mark2(v);  // On-path flags live in the secondary mark set.
  ws->cursor.push_back(0);
  int64_t steps = 0;
  while (!ws->path.empty() && ++steps <= max_steps &&
         ws->num_cycles < static_cast<size_t>(max_cycles)) {
    const int u = ws->path.back();
    auto nb = g.Neighbors(u);
    if (ws->cursor.back() >= nb.size()) {
      ws->Unmark2(u);
      ws->path.pop_back();
      ws->cursor.pop_back();
      continue;
    }
    const int w = nb[ws->cursor.back()++];
    if (w == v && ws->path.size() >= 3) {
      std::vector<int> cyc = internal::CanonicalCycle(ws->path);
      const auto found = ws->Cycles();
      if (std::find(found.begin(), found.end(), cyc) == found.end()) {
        ws->AcquireCycleSlot() = std::move(cyc);
      }
      continue;
    }
    if (ws->Seen2(w) || ws->path.size() >= static_cast<size_t>(max_len)) {
      continue;
    }
    ws->path.push_back(w);
    ws->Mark2(w);
    ws->cursor.push_back(0);
  }
  return ws->Cycles();
}

}  // namespace grgad

#endif  // GRGAD_GRAPH_ALGORITHMS_H_
