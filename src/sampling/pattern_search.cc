#include "src/sampling/pattern_search.h"

#include <algorithm>
#include <set>

#include "src/graph/algorithms.h"

namespace grgad {

namespace {

/// All canonical simple cycles of a small graph, up to caps.
template <typename G>
std::vector<std::vector<int>> FindCycles(const G& g, int max_len,
                                         int max_cycles) {
  std::vector<std::vector<int>> out;
  std::set<std::vector<int>> seen;
  for (int v = 0; v < g.num_nodes(); ++v) {
    if (static_cast<int>(out.size()) >= max_cycles) break;
    for (auto& cycle : CyclesThrough(g, v, max_len, max_cycles)) {
      std::vector<int> key = cycle;
      std::sort(key.begin(), key.end());
      if (seen.insert(key).second) {
        out.push_back(std::move(cycle));
        if (static_cast<int>(out.size()) >= max_cycles) break;
      }
    }
  }
  return out;
}

/// The one pattern-search implementation, generic over Graph/SubgraphView.
template <typename G>
FoundPatterns SearchPatternsImpl(const G& group_graph,
                                 const PatternSearchOptions& options) {
  FoundPatterns out;
  const int n = group_graph.num_nodes();
  if (n < 2) return out;

  // --- Cycles. ---
  out.cycles = FindCycles(group_graph, options.cycle_max_len,
                          options.max_cycles);
  std::vector<uint8_t> on_cycle(n, 0);
  for (const auto& cycle : out.cycles) {
    for (int v : cycle) on_cycle[v] = 1;
  }

  // --- Paths: maximal chains between degree-1 endpoints (off-cycle). ---
  std::vector<int> endpoints;
  for (int v = 0; v < n; ++v) {
    if (group_graph.Degree(v) == 1 && !on_cycle[v]) endpoints.push_back(v);
  }
  for (size_t a = 0;
       a < endpoints.size() &&
       static_cast<int>(out.paths.size()) < options.max_paths;
       ++a) {
    for (size_t b = a + 1;
         b < endpoints.size() &&
         static_cast<int>(out.paths.size()) < options.max_paths;
         ++b) {
      std::vector<int> path =
          ShortestPath(group_graph, endpoints[a], endpoints[b]);
      if (static_cast<int>(path.size()) < 3) continue;
      // Pure chain: every interior node has degree exactly 2 (a walk
      // through a branching node belongs to a tree pattern, not a path).
      bool pure = true;
      for (size_t k = 1; k + 1 < path.size(); ++k) {
        pure &= (group_graph.Degree(path[k]) == 2);
      }
      if (pure) out.paths.push_back(std::move(path));
    }
  }

  // --- Trees: BFS trees rooted at branching nodes of the acyclic part. ---
  for (int root = 0;
       root < n && static_cast<int>(out.trees.size()) < options.max_trees;
       ++root) {
    if (on_cycle[root]) continue;
    if (group_graph.Degree(root) < options.min_tree_children) continue;
    const BfsTree bfs = BuildBfsTree(group_graph, root, /*max_depth=*/-1);
    // Count root children actually reached and check the reached region is
    // acyclic (|edges inside| == |nodes| - 1).
    std::vector<int> reached;
    for (int u : bfs.order) {
      if (!on_cycle[u]) reached.push_back(u);
    }
    if (static_cast<int>(reached.size()) < options.min_tree_children + 1) {
      continue;
    }
    int internal_edges = 0;
    std::vector<uint8_t> in_reach(n, 0);
    for (int u : reached) in_reach[u] = 1;
    for (int u : reached) {
      for (int w : group_graph.Neighbors(u)) {
        if (w > u && in_reach[w]) ++internal_edges;
      }
    }
    if (internal_edges != static_cast<int>(reached.size()) - 1) continue;
    int root_children = 0;
    for (int w : group_graph.Neighbors(root)) {
      if (in_reach[w]) ++root_children;
    }
    if (root_children < options.min_tree_children) continue;
    out.trees.push_back(std::move(reached));  // Root-first (BFS order).
  }
  return out;
}

}  // namespace

FoundPatterns SearchPatterns(const Graph& group_graph,
                             const PatternSearchOptions& options) {
  return SearchPatternsImpl(group_graph, options);
}

FoundPatterns SearchPatterns(const SubgraphView& group_view,
                             const PatternSearchOptions& options) {
  return SearchPatternsImpl(group_view, options);
}

TopologyPattern ClassifyGroupPattern(const Graph& group_graph) {
  const int n = group_graph.num_nodes();
  const int m = group_graph.num_edges();
  if (n <= 1) return TopologyPattern::kMixed;
  // Cyclic content.
  PatternSearchOptions options;
  options.cycle_max_len = std::min(64, n);
  options.max_cycles = 16;
  const auto cycles = FindCycles(group_graph, options.cycle_max_len,
                                 options.max_cycles);
  if (!cycles.empty()) {
    std::vector<uint8_t> on_cycle(n, 0);
    int covered = 0;
    for (const auto& cycle : cycles) {
      for (int v : cycle) {
        if (!on_cycle[v]) {
          on_cycle[v] = 1;
          ++covered;
        }
      }
    }
    return covered * 2 >= n ? TopologyPattern::kCycle
                            : TopologyPattern::kMixed;
  }
  // Acyclic: m <= n-1 (forest).
  (void)m;
  int max_deg = 0;
  for (int v = 0; v < n; ++v) max_deg = std::max(max_deg,
                                                 group_graph.Degree(v));
  return max_deg <= 2 ? TopologyPattern::kPath : TopologyPattern::kTree;
}

}  // namespace grgad
