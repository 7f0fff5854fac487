// Graph algorithms: BFS trees, shortest paths (BFS + Bellman-Ford
// agreement on unit weights), connected components, subset components,
// cycle enumeration, and local structure statistics.
#include "src/graph/algorithms.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

namespace grgad {
namespace {

/// 0-1-2-3-4 path plus a 5-6-7 triangle island... (7 total wired below).
Graph PathAndTriangle() {
  GraphBuilder b(8);
  for (int i = 0; i + 1 < 5; ++i) b.AddEdge(i, i + 1);
  b.AddEdge(5, 6);
  b.AddEdge(6, 7);
  b.AddEdge(7, 5);
  return b.Build();
}

Graph Ring(int n) {
  GraphBuilder b(n);
  for (int i = 0; i < n; ++i) b.AddEdge(i, (i + 1) % n);
  return b.Build();
}

TEST(AlgorithmsTest, ShortestPathOnPathGraph) {
  Graph g = PathAndTriangle();
  EXPECT_EQ(ShortestPath(g, 0, 4), (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(ShortestPath(g, 2, 2), (std::vector<int>{2}));
  EXPECT_TRUE(ShortestPath(g, 0, 5).empty());
}

TEST(AlgorithmsTest, ShortestPathPicksShortcut) {
  Graph g = Ring(6);
  const auto path = ShortestPath(g, 0, 2);
  EXPECT_EQ(path.size(), 3u);
  EXPECT_EQ(path.front(), 0);
  EXPECT_EQ(path.back(), 2);
}

TEST(AlgorithmsTest, BellmanFordMatchesBfsOnUnitWeights) {
  Graph g = Ring(7);
  const std::vector<double> unit(g.num_edges(), 1.0);
  TraversalWorkspace ws;
  ASSERT_TRUE(BellmanFord(g, 0, unit, &ws));
  const BfsTree bfs = BuildBfsTree(g, 0, /*max_depth=*/-1);
  for (int v = 0; v < g.num_nodes(); ++v) {
    EXPECT_DOUBLE_EQ(ws.Dist(v), static_cast<double>(bfs.depth[v]));
  }
}

TEST(AlgorithmsTest, BellmanFordRespectsWeights) {
  // 0-1 (w=10), 0-2 (w=1), 1-2 (w=1): best 0->1 goes through 2.
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(0, 2);
  b.AddEdge(1, 2);
  Graph g = b.Build();
  // ForEachEdge order is sorted: (0,1), (0,2), (1,2).
  std::vector<double> w = {10.0, 1.0, 1.0};
  TraversalWorkspace ws;
  ASSERT_TRUE(BellmanFord(g, 0, w, &ws));
  EXPECT_DOUBLE_EQ(ws.Dist(1), 2.0);
  EXPECT_EQ(ws.Parent(1), 2);
  EXPECT_EQ(ws.Parent(2), 0);
}

TEST(AlgorithmsTest, BellmanFordDetectsNegativeCycle) {
  Graph g = Ring(3);
  std::vector<double> w = {-1.0, -1.0, -1.0};
  TraversalWorkspace ws;
  EXPECT_FALSE(BellmanFord(g, 0, w, &ws));
}

TEST(AlgorithmsTest, BfsTreeStructure) {
  Graph g = PathAndTriangle();
  const BfsTree tree = BuildBfsTree(g, 1, 2);
  EXPECT_EQ(tree.parent[1], 1);
  EXPECT_EQ(tree.depth[1], 0);
  EXPECT_EQ(tree.parent[0], 1);
  EXPECT_EQ(tree.depth[3], 2);
  EXPECT_EQ(tree.depth[4], kUnreachable);  // Beyond depth 2.
  EXPECT_EQ(tree.order.front(), 1);
  // Order is by non-decreasing depth.
  for (size_t i = 1; i < tree.order.size(); ++i) {
    EXPECT_LE(tree.depth[tree.order[i - 1]], tree.depth[tree.order[i]]);
  }
}

TEST(AlgorithmsTest, ComponentsOfSubset) {
  Graph g = PathAndTriangle();
  // {0,1} contiguous; {3} isolated from them (2 missing); {5,7} joined.
  const auto groups = ComponentsOfSubset(g, {0, 1, 3, 5, 7});
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0], (std::vector<int>{0, 1}));
  EXPECT_EQ(groups[1], (std::vector<int>{3}));
  EXPECT_EQ(groups[2], (std::vector<int>{5, 7}));
}

TEST(AlgorithmsTest, CyclesThroughFindsRing) {
  Graph g = Ring(5);
  const auto cycles = CyclesThrough(g, 0, 8);
  ASSERT_EQ(cycles.size(), 1u);
  EXPECT_EQ(cycles[0].size(), 5u);
  EXPECT_EQ(cycles[0][0], 0);
  std::set<int> members(cycles[0].begin(), cycles[0].end());
  EXPECT_EQ(members.size(), 5u);
}

TEST(AlgorithmsTest, CyclesThroughRespectsMaxLen) {
  Graph g = Ring(9);
  EXPECT_TRUE(CyclesThrough(g, 0, 8).empty());
  EXPECT_EQ(CyclesThrough(g, 0, 9).size(), 1u);
}

TEST(AlgorithmsTest, CyclesOnAcyclicGraphEmpty) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(1, 3);
  const auto cycles = CyclesThrough(b.Build(), 1, 8);
  EXPECT_TRUE(cycles.empty());
}

TEST(AlgorithmsTest, TwoTrianglesSharingNode) {
  // Two triangles sharing node 0: 0-1-2 and 0-3-4.
  GraphBuilder b(5);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  b.AddEdge(0, 3);
  b.AddEdge(3, 4);
  b.AddEdge(4, 0);
  const auto cycles = CyclesThrough(b.Build(), 0, 8);
  EXPECT_EQ(cycles.size(), 2u);
}

// Property: on rings of odd size n, the shortest path between antipodal-ish
// nodes has ceil(n/2) edges at most.
class RingPathPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RingPathPropertyTest, PathLengthBounded) {
  const int n = GetParam();
  Graph g = Ring(n);
  for (int target = 1; target < n; ++target) {
    const auto path = ShortestPath(g, 0, target);
    ASSERT_FALSE(path.empty());
    const int hops = static_cast<int>(path.size()) - 1;
    EXPECT_EQ(hops, std::min(target, n - target));
  }
}

INSTANTIATE_TEST_SUITE_P(RingSizes, RingPathPropertyTest,
                         ::testing::Values(3, 4, 5, 8, 11));

}  // namespace
}  // namespace grgad
