#include "src/graph/algorithms.h"

#include <deque>
#include <unordered_set>

namespace grgad {

bool BellmanFord(const Graph& g, int src, const std::vector<double>& weights,
                 TraversalWorkspace* ws) {
  GRGAD_CHECK(src >= 0 && src < g.num_nodes());
  GRGAD_CHECK(ws != nullptr);
  GRGAD_CHECK_EQ(weights.size(), static_cast<size_t>(g.num_edges()));
  ws->Begin(g.num_nodes());
  ws->Mark(src);
  ws->dist[src] = 0.0;
  ws->parent[src] = src;
  bool changed = true;
  for (int round = 0; round < g.num_nodes() && changed; ++round) {
    changed = false;
    size_t e = 0;
    g.ForEachEdge([&](int u, int v) {
      const double w = weights[e++];
      // ws->Dist reads +inf for nodes not yet reached this epoch — the
      // same semantics as the seed's assign(n, inf) without the O(n) fill.
      // Both relaxations re-read, exactly like the seed: with negative
      // weights the second test must see the first one's update.
      if (ws->Dist(u) + w < ws->Dist(v)) {
        ws->Mark(v);
        ws->dist[v] = ws->Dist(u) + w;
        ws->parent[v] = u;
        changed = true;
      }
      if (ws->Dist(v) + w < ws->Dist(u)) {
        ws->Mark(u);
        ws->dist[u] = ws->Dist(v) + w;
        ws->parent[u] = v;
        changed = true;
      }
    });
  }
  bool negative_cycle = false;
  size_t e = 0;
  g.ForEachEdge([&](int u, int v) {
    const double w = weights[e++];
    if (ws->Dist(u) + w < ws->Dist(v) || ws->Dist(v) + w < ws->Dist(u)) {
      negative_cycle = true;
    }
  });
  return !negative_cycle;
}

void Dijkstra(const Graph& g, int src, std::span<const double> slot_costs,
              double max_cost, TraversalWorkspace* ws) {
  GRGAD_CHECK(src >= 0 && src < g.num_nodes());
  GRGAD_CHECK(ws != nullptr);
  GRGAD_CHECK_EQ(slot_costs.size(), static_cast<size_t>(g.num_adj_slots()));
  ws->Begin(g.num_nodes());
  // Total pushes are bounded by 1 + one per successful relaxation, and each
  // directed slot can relax at most once per improvement chain; reserving
  // the bound keeps steady-state traversals growth-free.
  ws->ReserveHeap(static_cast<size_t>(g.num_adj_slots()) + 1);
  ws->Mark(src);
  ws->dist[src] = 0.0;
  ws->parent[src] = src;
  ws->PushHeap(0.0, src);
  const std::greater<std::pair<double, int>> cmp;
  while (!ws->heap.empty()) {
    const auto [d, u] = ws->heap.front();
    std::pop_heap(ws->heap.begin(), ws->heap.end(), cmp);
    ws->heap.pop_back();
    if (d > ws->dist[u]) continue;  // Stale entry (u is marked: it was pushed).
    auto nb = g.Neighbors(u);
    const double* costs = slot_costs.data() + g.AdjOffset(u);
    for (size_t i = 0; i < nb.size(); ++i) {
      const int w = nb[i];
      const double c = costs[i];
      GRGAD_DCHECK(c >= 0.0);
      const double nd = d + c;
      if (max_cost > 0.0 && nd > max_cost) continue;
      if (nd < ws->Dist(w)) {
        ws->Mark(w);
        ws->dist[w] = nd;
        ws->parent[w] = u;
        ws->PushHeap(nd, w);
      }
    }
  }
}

std::vector<std::vector<int>> ComponentsOfSubset(
    const Graph& g, const std::vector<int>& nodes) {
  std::unordered_set<int> in_set(nodes.begin(), nodes.end());
  for (int v : nodes) GRGAD_CHECK(v >= 0 && v < g.num_nodes());
  std::vector<std::vector<int>> groups;
  // Deterministic iteration: walk `nodes` order, BFS within the subset.
  std::vector<int> seen_group(g.num_nodes(), -1);
  for (int start : nodes) {
    if (seen_group[start] != -1) continue;
    std::vector<int> group;
    std::deque<int> queue = {start};
    seen_group[start] = static_cast<int>(groups.size());
    while (!queue.empty()) {
      const int u = queue.front();
      queue.pop_front();
      group.push_back(u);
      for (int w : g.Neighbors(u)) {
        if (seen_group[w] == -1 && in_set.count(w) > 0) {
          seen_group[w] = static_cast<int>(groups.size());
          queue.push_back(w);
        }
      }
    }
    std::sort(group.begin(), group.end());
    groups.push_back(std::move(group));
  }
  return groups;
}

std::vector<std::vector<int>> ComponentsOfSubset(const Graph& g,
                                                 const std::vector<int>& nodes,
                                                 TraversalWorkspace* ws) {
  GRGAD_CHECK(ws != nullptr);
  ws->Begin(g.num_nodes());
  // Subset membership on the secondary marks, group-visited on the primary.
  for (int v : nodes) {
    GRGAD_CHECK(v >= 0 && v < g.num_nodes());
    ws->Mark2(v);
  }
  std::vector<std::vector<int>> groups;
  for (int start : nodes) {
    if (ws->Seen(start)) continue;
    std::vector<int> group;
    ws->order.clear();
    ws->order.push_back(start);
    ws->Mark(start);
    for (size_t head = 0; head < ws->order.size(); ++head) {
      const int u = ws->order[head];
      group.push_back(u);
      for (int w : g.Neighbors(u)) {
        if (!ws->Seen(w) && ws->Seen2(w)) {
          ws->Mark(w);
          ws->order.push_back(w);
        }
      }
    }
    std::sort(group.begin(), group.end());
    groups.push_back(std::move(group));
  }
  return groups;
}

}  // namespace grgad
