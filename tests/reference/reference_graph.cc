#include "tests/reference/reference_graph.h"

#include <limits>
#include <queue>

#include "src/util/check.h"

namespace grgad::reference {

bool BellmanFord(const Graph& g, int src, const std::vector<double>& weights,
                 std::vector<double>* dist, std::vector<int>* parent) {
  GRGAD_CHECK(src >= 0 && src < g.num_nodes());
  GRGAD_CHECK(dist != nullptr && parent != nullptr);
  GRGAD_CHECK_EQ(weights.size(), static_cast<size_t>(g.num_edges()));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  dist->assign(g.num_nodes(), kInf);
  parent->assign(g.num_nodes(), -1);
  (*dist)[src] = 0.0;
  (*parent)[src] = src;
  bool changed = true;
  for (int round = 0; round < g.num_nodes() && changed; ++round) {
    changed = false;
    size_t e = 0;
    g.ForEachEdge([&](int u, int v) {
      const double w = weights[e++];
      if ((*dist)[u] + w < (*dist)[v]) {
        (*dist)[v] = (*dist)[u] + w;
        (*parent)[v] = u;
        changed = true;
      }
      if ((*dist)[v] + w < (*dist)[u]) {
        (*dist)[u] = (*dist)[v] + w;
        (*parent)[u] = v;
        changed = true;
      }
    });
  }
  // One more pass: any improvement means a negative cycle.
  bool negative_cycle = false;
  size_t e = 0;
  g.ForEachEdge([&](int u, int v) {
    const double w = weights[e++];
    if ((*dist)[u] + w < (*dist)[v] || (*dist)[v] + w < (*dist)[u]) {
      negative_cycle = true;
    }
  });
  return !negative_cycle;
}

void Dijkstra(const Graph& g, int src,
              const std::function<double(int, int)>& cost,
              std::vector<double>* dist, std::vector<int>* parent,
              double max_cost) {
  GRGAD_CHECK(src >= 0 && src < g.num_nodes());
  GRGAD_CHECK(dist != nullptr && parent != nullptr);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  dist->assign(g.num_nodes(), kInf);
  parent->assign(g.num_nodes(), -1);
  (*dist)[src] = 0.0;
  (*parent)[src] = src;
  using Entry = std::pair<double, int>;  // (distance, node)
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  queue.emplace(0.0, src);
  while (!queue.empty()) {
    const auto [d, u] = queue.top();
    queue.pop();
    if (d > (*dist)[u]) continue;  // Stale entry.
    for (int w : g.Neighbors(u)) {
      const double c = cost(u, w);
      const double nd = d + c;
      if (max_cost > 0.0 && nd > max_cost) continue;
      if (nd < (*dist)[w]) {
        (*dist)[w] = nd;
        (*parent)[w] = u;
        queue.emplace(nd, w);
      }
    }
  }
}

}  // namespace grgad::reference
