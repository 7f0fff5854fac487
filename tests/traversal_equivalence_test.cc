// Equivalence contract of the candidate-stage primitives (PERF.md,
// "Candidate stage"):
//   - every workspace-backed traversal (BFS tree, Dijkstra over
//     adjacency-slot costs, Bellman–Ford, subset components, cycle DFS) is
//     element-for-element identical to the allocating seed implementation
//     (the template next to it, or tests/reference/reference_graph.h) on
//     random graphs, including when one workspace is reused across many
//     traversals;
//   - a SubgraphView exposes exactly the graph Graph::InducedSubgraph
//     materializes (ids, CSR rows, edge enumeration), and pattern search
//     and every augmentation produce identical output on a view of the
//     group and on the materialized copy under a fixed RNG;
//   - pooled workspaces are allocation-free at steady state.
#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "src/gcl/augmentations.h"
#include "src/graph/algorithms.h"
#include "src/graph/graph.h"
#include "src/graph/subgraph_view.h"
#include "src/graph/traversal_workspace.h"
#include "src/sampling/pattern_search.h"
#include "src/util/rng.h"
#include "tests/kernel_test_util.h"
#include "tests/reference/reference_graph.h"

namespace grgad {
namespace {

using testing::BitwiseEqual;

/// Connected-ish random graph with extra chords and 6-dim attributes.
Graph RandomGraph(int n, int extra_edges, uint64_t seed,
                  bool attributes = true) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (int v = 1; v < n; ++v) {
    if (rng.Bernoulli(0.9)) {
      b.AddEdge(v, static_cast<int>(rng.UniformInt(static_cast<uint64_t>(v))));
    }
  }
  for (int e = 0; e < extra_edges; ++e) {
    const int u = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
    const int v = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
    if (u != v) b.AddEdge(u, v);
  }
  Matrix x;
  if (attributes) x = Matrix::Gaussian(n, 6, &rng);
  return b.Build(std::move(x));
}

double AttrCost(const Graph& g, int u, int v) {
  const double* a = g.attributes().RowPtr(u);
  const double* b = g.attributes().RowPtr(v);
  double s = 0.0;
  for (size_t j = 0; j < g.attr_dim(); ++j) {
    const double d = a[j] - b[j];
    s += d * d;
  }
  return 0.25 + std::sqrt(s);
}

std::vector<double> SlotCosts(const Graph& g) {
  std::vector<double> costs(g.num_adj_slots());
  for (int u = 0; u < g.num_nodes(); ++u) {
    auto nb = g.Neighbors(u);
    for (size_t i = 0; i < nb.size(); ++i) {
      costs[g.AdjOffset(u) + i] = AttrCost(g, u, nb[i]);
    }
  }
  return costs;
}

TEST(ForEachEdgeTest, MatchesNeighborRows) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const Graph g = RandomGraph(60, 90, seed);
    std::vector<std::pair<int, int>> edges;
    for (int u = 0; u < g.num_nodes(); ++u) {
      for (int v : g.Neighbors(u)) {
        if (u < v) edges.emplace_back(u, v);
      }
    }
    std::vector<std::pair<int, int>> streamed;
    g.ForEachEdge([&](int u, int v) { streamed.emplace_back(u, v); });
    EXPECT_EQ(streamed, edges);
    EXPECT_EQ(g.num_adj_slots(), 2 * g.num_edges());
  }
}

TEST(TraversalEquivalenceTest, BfsTree) {
  TraversalWorkspace ws;
  for (uint64_t seed : {21u, 22u}) {
    const Graph g = RandomGraph(100, 80, seed);
    for (int max_depth : {-1, 3, 32}) {
      for (int root : {0, 13, 99}) {
        const BfsTree want = BuildBfsTree(g, root, max_depth);
        BuildBfsTree(g, root, max_depth, &ws);
        ASSERT_EQ(ws.Order().size(), want.order.size());
        for (size_t i = 0; i < want.order.size(); ++i) {
          ASSERT_EQ(ws.Order()[i], want.order[i]);
        }
        for (int v = 0; v < g.num_nodes(); ++v) {
          ASSERT_EQ(ws.Parent(v), want.parent[v]);
          ASSERT_EQ(ws.Hop(v), want.depth[v]);
        }
      }
    }
  }
}

TEST(TraversalEquivalenceTest, DijkstraSlotCosts) {
  TraversalWorkspace ws;
  for (uint64_t seed : {31u, 32u}) {
    const Graph g = RandomGraph(90, 70, seed);
    const std::vector<double> slot_costs = SlotCosts(g);
    const auto cost_fn = [&g](int u, int v) { return AttrCost(g, u, v); };
    for (double max_cost : {0.0, 3.5}) {
      for (int src : {0, 44, 89}) {
        std::vector<double> want_dist;
        std::vector<int> want_parent;
        reference::Dijkstra(g, src, cost_fn, &want_dist, &want_parent,
                            max_cost);
        Dijkstra(g, src, slot_costs, max_cost, &ws);
        for (int v = 0; v < g.num_nodes(); ++v) {
          ASSERT_EQ(ws.Dist(v), want_dist[v]) << "src=" << src << " v=" << v;
          ASSERT_EQ(ws.Parent(v), want_parent[v]);
        }
      }
    }
  }
}

TEST(TraversalEquivalenceTest, BellmanFord) {
  TraversalWorkspace ws;
  for (uint64_t seed : {41u, 42u}) {
    const Graph g = RandomGraph(70, 50, seed);
    Rng rng(seed ^ 0xbeef);
    std::vector<double> weights(g.num_edges());
    for (double& w : weights) w = rng.Uniform(0.05, 2.0);
    for (int src : {0, 35, 69}) {
      std::vector<double> want_dist;
      std::vector<int> want_parent;
      const bool want_ok = reference::BellmanFord(g, src, weights, &want_dist,
                                                  &want_parent);
      const bool got_ok = BellmanFord(g, src, weights, &ws);
      ASSERT_EQ(got_ok, want_ok);
      for (int v = 0; v < g.num_nodes(); ++v) {
        ASSERT_EQ(ws.Dist(v), want_dist[v]);
        ASSERT_EQ(ws.Parent(v), want_parent[v]);
      }
    }
  }
}

TEST(TraversalEquivalenceTest, BellmanFordNegativeCycle) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(0, 2);
  const Graph g = b.Build();
  const std::vector<double> weights = {-1.0, -1.0, -1.0};
  std::vector<double> dist;
  std::vector<int> parent;
  EXPECT_FALSE(reference::BellmanFord(g, 0, weights, &dist, &parent));
  TraversalWorkspace ws;
  EXPECT_FALSE(BellmanFord(g, 0, weights, &ws));
}

TEST(TraversalEquivalenceTest, ComponentsOfSubset) {
  TraversalWorkspace ws;
  for (uint64_t seed : {61u, 62u}) {
    const Graph g = RandomGraph(100, 60, seed, /*attributes=*/false);
    Rng rng(seed ^ 0xfeed);
    std::vector<int> subset;
    for (int v = 0; v < g.num_nodes(); ++v) {
      if (rng.Bernoulli(0.35)) subset.push_back(v);
    }
    rng.Shuffle(&subset);  // Order-sensitive output; exercise it shuffled.
    EXPECT_EQ(ComponentsOfSubset(g, subset, &ws),
              ComponentsOfSubset(g, subset));
  }
}

TEST(TraversalEquivalenceTest, CyclesThrough) {
  TraversalWorkspace ws;
  for (uint64_t seed : {71u, 72u}) {
    const Graph g = RandomGraph(50, 80, seed, /*attributes=*/false);
    for (int v : {0, 10, 49}) {
      const auto want = CyclesThrough(g, v, /*max_len=*/8, /*max_cycles=*/16,
                                      /*max_steps=*/20000);
      const auto got = CyclesThrough(g, v, /*max_len=*/8, /*max_cycles=*/16,
                                     /*max_steps=*/20000, &ws);
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) ASSERT_EQ(got[i], want[i]);
    }
  }
}

TEST(SubgraphViewTest, MatchesInducedSubgraph) {
  for (uint64_t seed : {81u, 82u, 83u}) {
    const Graph g = RandomGraph(60, 70, seed);
    // Sorted, unsorted, and duplicate-bearing node lists.
    const std::vector<std::vector<int>> node_lists = {
        {1, 2, 3, 4, 5, 9, 10, 11},
        {30, 4, 17, 55, 2, 41, 8},
        {7, 7, 3, 12, 3, 20, 12, 1},
    };
    SubgraphView view;
    for (const auto& nodes : node_lists) {
      const Graph induced = g.InducedSubgraph(nodes);
      view.Reset(g, nodes);
      ASSERT_EQ(view.num_nodes(), induced.num_nodes());
      ASSERT_EQ(view.num_edges(), induced.num_edges());
      ASSERT_EQ(std::vector<int>(view.GlobalIds().begin(),
                                 view.GlobalIds().end()),
                induced.mapping());
      for (int v = 0; v < view.num_nodes(); ++v) {
        ASSERT_EQ(view.Degree(v), induced.Degree(v));
        auto got = view.Neighbors(v);
        auto want = induced.Neighbors(v);
        ASSERT_EQ(std::vector<int>(got.begin(), got.end()),
                  std::vector<int>(want.begin(), want.end()));
      }
      std::vector<std::pair<int, int>> streamed;
      view.ForEachEdge([&](int u, int v) { streamed.emplace_back(u, v); });
      EXPECT_EQ(streamed, reference::EdgeList(induced));
      // Attribute rows alias the host rows of the mapped ids.
      for (int v = 0; v < view.num_nodes(); ++v) {
        const double* got_row = view.AttrRow(v);
        for (size_t j = 0; j < g.attr_dim(); ++j) {
          ASSERT_EQ(got_row[j], induced.attributes()(v, j));
        }
      }
    }
  }
}

TEST(SubgraphViewTest, PatternsMatchInduced) {
  for (uint64_t seed : {91u, 92u, 93u}) {
    const Graph g = RandomGraph(80, 50, seed);
    Rng pick(seed);
    SubgraphView view;
    for (int trial = 0; trial < 6; ++trial) {
      std::vector<int> nodes;
      const int base = static_cast<int>(pick.UniformInt(60));
      for (int i = 0; i < 14; ++i) nodes.push_back(base + i);
      const Graph induced = g.InducedSubgraph(nodes);
      view.Reset(g, nodes);
      const FoundPatterns want = SearchPatterns(induced);
      const FoundPatterns got = SearchPatterns(view);
      EXPECT_EQ(got.trees, want.trees);
      EXPECT_EQ(got.paths, want.paths);
      EXPECT_EQ(got.cycles, want.cycles);
    }
  }
}

TEST(SubgraphViewTest, AugmentMatchesInducedUnderFixedRng) {
  const Graph g = RandomGraph(70, 60, 101);
  SubgraphView view;
  for (AugmentationKind kind :
       {AugmentationKind::kPba, AugmentationKind::kPpa,
        AugmentationKind::kNodeDrop, AugmentationKind::kEdgeRemove,
        AugmentationKind::kFeatureMask}) {
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<int> nodes;
      for (int i = 0; i < 12; ++i) nodes.push_back(trial * 13 + i);
      const Graph induced = g.InducedSubgraph(nodes);
      view.Reset(g, nodes);
      const FoundPatterns patterns = SearchPatterns(induced);
      Rng rng_a(7u + trial);
      Rng rng_b(7u + trial);
      const Graph want = Augment(induced, kind, patterns, &rng_a);
      const Graph got = Augment(view, kind, patterns, &rng_b);
      ASSERT_EQ(got.num_nodes(), want.num_nodes()) << ToString(kind);
      EXPECT_EQ(reference::EdgeList(got), reference::EdgeList(want))
          << ToString(kind);
      EXPECT_TRUE(BitwiseEqual(got.attributes(), want.attributes()))
          << ToString(kind);
      // The two forms must also have consumed the same rng stream.
      EXPECT_EQ(rng_a.NextU64(), rng_b.NextU64()) << ToString(kind);
    }
  }
}

TEST(WorkspacePoolTest, SteadyStateAcquireIsAllocationFree) {
  TraversalWorkspacePool pool;
  pool.Prewarm(4, 256);
  const uint64_t before = TraversalWorkspace::TotalHeapAllocs();
  for (int round = 0; round < 3; ++round) {
    auto a = pool.Acquire();
    auto b = pool.Acquire();
    a->Begin(256);
    b->Begin(100);  // Smaller graphs never grow a prewarmed workspace.
  }
  EXPECT_EQ(TraversalWorkspace::TotalHeapAllocs(), before);
}

TEST(WorkspaceTest, ReuseAcrossTraversalsStaysCorrect) {
  // One workspace, alternating algorithms over two graphs: the epoch stamp
  // must fully isolate consecutive traversals.
  const Graph g1 = RandomGraph(64, 40, 111);
  const Graph g2 = RandomGraph(48, 90, 112);
  TraversalWorkspace ws;
  for (int round = 0; round < 5; ++round) {
    const Graph& g = (round % 2 == 0) ? g1 : g2;
    const int src = round * 7 % g.num_nodes();
    const BfsTree want_bfs = BuildBfsTree(g, src, -1);
    BuildBfsTree(g, src, -1, &ws);
    for (int v = 0; v < g.num_nodes(); ++v) {
      ASSERT_EQ(ws.Hop(v), want_bfs.depth[v]);
    }
    const auto want_cycles = CyclesThrough(g, src, 6, 8, 5000);
    const auto got_cycles = CyclesThrough(g, src, 6, 8, 5000, &ws);
    ASSERT_EQ(got_cycles.size(), want_cycles.size());
  }
}

}  // namespace
}  // namespace grgad
