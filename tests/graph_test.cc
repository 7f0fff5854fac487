// Graph/GraphBuilder: CSR invariants, dedup, induced subgraphs with
// mapping composition, and Validate().
#include "src/graph/graph.h"

#include <algorithm>
#include <iterator>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/rng.h"
#include "tests/kernel_test_util.h"

namespace grgad {
namespace {

Graph TriangleWithTail() {
  // 0-1-2 triangle, 2-3 tail.
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  b.AddEdge(2, 3);
  return b.Build();
}

TEST(GraphBuilderTest, DedupsAndDropsSelfLoops) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);  // Duplicate (reversed).
  b.AddEdge(0, 1);  // Duplicate.
  b.AddEdge(2, 2);  // Self-loop.
  EXPECT_EQ(b.num_edges(), 1);
  Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 1);
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(GraphBuilderTest, HasEdgeQueries) {
  GraphBuilder b(3);
  b.AddEdge(0, 2);
  EXPECT_TRUE(b.HasEdge(0, 2));
  EXPECT_TRUE(b.HasEdge(2, 0));
  EXPECT_FALSE(b.HasEdge(0, 1));
  EXPECT_FALSE(b.HasEdge(1, 1));
}

TEST(GraphBuilderTest, HasEdgeMatchesASetModelUnderRandomAdds) {
  // Random adds with duplicates, reversed pairs and self-loops, HasEdge
  // asked between them, before and after Build, and on a reused builder:
  // the builder answers exactly as a std::set of normalized pairs.
  constexpr int kNodes = 40;
  Rng rng(11);
  GraphBuilder b(kNodes);
  std::set<std::pair<int, int>> model;
  const auto random_node = [&] {
    return static_cast<int>(rng.UniformInt(static_cast<uint64_t>(kNodes)));
  };
  const auto check_all = [&] {
    for (int u = 0; u < kNodes; ++u) {
      for (int v = 0; v < kNodes; ++v) {
        ASSERT_EQ(b.HasEdge(u, v),
                  model.count({std::min(u, v), std::max(u, v)}) != 0 &&
                      u != v)
            << u << "-" << v;
      }
    }
    ASSERT_EQ(b.num_edges(), static_cast<int>(model.size()));
  };
  for (int round = 0; round < 3; ++round) {
    for (int step = 0; step < 150; ++step) {
      int u = random_node();
      int v = step % 10 == 0 ? u : random_node();  // Every tenth a self-loop.
      if (step % 7 == 0 && !model.empty()) {
        // Re-add a present pair, reversed half of the time.
        auto it = model.begin();
        std::advance(it, rng.UniformInt(model.size()));
        u = step % 2 ? it->second : it->first;
        v = step % 2 ? it->first : it->second;
      }
      if (step % 5 == 0) {
        const int a = random_node();
        const int c = random_node();
        ASSERT_EQ(b.HasEdge(a, c),
                  a != c && model.count({std::min(a, c), std::max(a, c)}) != 0);
      }
      b.AddEdge(u, v);
      if (u != v) model.insert({std::min(u, v), std::max(u, v)});
    }
    check_all();
    // Build leaves the builder reusable; the next round keeps adding.
    const Graph g = b.Build();
    ASSERT_EQ(g.num_edges(), static_cast<int>(model.size()));
    for (const auto& [u, v] : model) ASSERT_TRUE(g.HasEdge(u, v));
    check_all();
  }
}

TEST(GraphTest, NeighborsSortedAndSymmetric) {
  Graph g = TriangleWithTail();
  EXPECT_EQ(g.num_nodes(), 4);
  EXPECT_EQ(g.num_edges(), 4);
  auto nb = g.Neighbors(2);
  EXPECT_EQ(std::vector<int>(nb.begin(), nb.end()),
            (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(g.Degree(2), 3);
  EXPECT_EQ(g.Degree(3), 1);
  EXPECT_TRUE(g.HasEdge(3, 2));
  EXPECT_FALSE(g.HasEdge(3, 0));
  EXPECT_FALSE(g.HasEdge(-1, 0));
  EXPECT_FALSE(g.HasEdge(0, 99));
  EXPECT_TRUE(g.Validate().ok());
}

TEST(GraphTest, ForEachEdgeVisitsEachOnceInOrder) {
  Graph g = TriangleWithTail();
  std::vector<std::pair<int, int>> edges;
  g.ForEachEdge([&edges](int u, int v) { edges.emplace_back(u, v); });
  EXPECT_EQ(edges.size(), 4u);
  for (const auto& [u, v] : edges) EXPECT_LT(u, v);
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end()));
}

TEST(GraphTest, AttributesAttachAndValidate) {
  GraphBuilder b(2);
  b.AddEdge(0, 1);
  Matrix x = testing::FromRows({{1.0, 2.0}, {3.0, 4.0}});
  Graph g = b.Build(x);
  EXPECT_TRUE(g.has_attributes());
  EXPECT_EQ(g.attr_dim(), 2u);
  EXPECT_DOUBLE_EQ(g.attributes()(1, 0), 3.0);
  Matrix y = testing::FromRows({{9.0, 9.0}, {8.0, 8.0}});
  g.SetAttributes(y);
  EXPECT_DOUBLE_EQ(g.attributes()(0, 0), 9.0);
  EXPECT_TRUE(g.Validate().ok());
}

TEST(GraphTest, InducedSubgraphBasics) {
  Graph g = TriangleWithTail();
  Matrix x(4, 1);
  for (int i = 0; i < 4; ++i) x(i, 0) = i * 10.0;
  g.SetAttributes(x);
  Graph sub = g.InducedSubgraph({2, 0, 1});
  EXPECT_EQ(sub.num_nodes(), 3);
  EXPECT_EQ(sub.num_edges(), 3);  // The triangle.
  EXPECT_EQ(sub.mapping(), (std::vector<int>{2, 0, 1}));
  EXPECT_DOUBLE_EQ(sub.attributes()(0, 0), 20.0);
  EXPECT_TRUE(sub.Validate().ok());
}

TEST(GraphTest, InducedSubgraphDedupsInput) {
  Graph g = TriangleWithTail();
  Graph sub = g.InducedSubgraph({3, 3, 2, 3});
  EXPECT_EQ(sub.num_nodes(), 2);
  EXPECT_EQ(sub.num_edges(), 1);
  EXPECT_EQ(sub.mapping(), (std::vector<int>{3, 2}));
}

TEST(GraphTest, NestedInducedSubgraphComposesMapping) {
  Graph g = TriangleWithTail();
  Graph sub = g.InducedSubgraph({1, 2, 3});  // local: 0->1, 1->2, 2->3
  Graph subsub = sub.InducedSubgraph({1, 2});
  EXPECT_EQ(subsub.mapping(), (std::vector<int>{2, 3}));
  EXPECT_EQ(subsub.num_edges(), 1);
}

TEST(GraphTest, EmptyGraph) {
  Graph g = GraphBuilder(0).Build();
  EXPECT_EQ(g.num_nodes(), 0);
  EXPECT_EQ(g.num_edges(), 0);
  EXPECT_TRUE(g.Validate().ok());
  Graph single = GraphBuilder(1).Build();
  EXPECT_EQ(single.Degree(0), 0);
  EXPECT_TRUE(single.Neighbors(0).empty());
}

TEST(GraphTest, DisconnectedNodesSurvive) {
  GraphBuilder b(5);
  b.AddEdge(0, 4);
  Graph g = b.Build();
  EXPECT_EQ(g.num_nodes(), 5);
  EXPECT_EQ(g.Degree(2), 0);
  EXPECT_TRUE(g.Validate().ok());
}

}  // namespace
}  // namespace grgad
