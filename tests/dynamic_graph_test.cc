// DynamicGraph: mutation semantics spliced into the packed Graph, the
// counting-only compaction, the wire form of a mutation, and the
// canonical-PackedView equivalence against an independent edge-set model
// rebuilt through GraphBuilder under randomized churn.
#include "src/graph/dynamic_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/util/rng.h"
#include "tests/kernel_test_util.h"
#include "tests/reference/reference_graph.h"

namespace grgad {
namespace {

Graph TriangleWithTail(int num_nodes = 4) {
  // 0-1-2 triangle, 2-3 tail; nodes past 3 are isolated.
  GraphBuilder b(num_nodes);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  b.AddEdge(2, 3);
  return b.Build();
}

Graph RandomGraph(int n, int extra_edges, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (int v = 1; v < n; ++v) {
    b.AddEdge(v, static_cast<int>(rng.UniformInt(static_cast<uint64_t>(v))));
  }
  for (int e = 0; e < extra_edges; ++e) {
    const int u = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
    const int v = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
    if (u != v) b.AddEdge(u, v);
  }
  Matrix x = Matrix::Gaussian(n, 4, &rng);
  return b.Build(std::move(x));
}

/// Edge set as normalized (min, max) pairs, read off a graph once.
using EdgeModel = std::set<std::pair<int, int>>;

EdgeModel EdgesOf(const Graph& g) {
  EdgeModel edges;
  g.ForEachEdge([&edges](int u, int v) { edges.emplace(u, v); });
  return edges;
}

/// The graph a from-scratch GraphBuilder would produce from `edges`.
Graph Rebuild(int num_nodes, const EdgeModel& edges, const Matrix& attrs) {
  GraphBuilder b(num_nodes);
  for (const auto& [u, v] : edges) b.AddEdge(u, v);
  return b.Build(attrs);
}

/// Field-level equality of two graphs (offsets/rows/attrs), via the public
/// surface.
void ExpectSameGraph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (int v = 0; v < a.num_nodes(); ++v) {
    auto na = a.Neighbors(v);
    auto nb = b.Neighbors(v);
    ASSERT_EQ(std::vector<int>(na.begin(), na.end()),
              std::vector<int>(nb.begin(), nb.end()))
        << "row " << v;
  }
  ASSERT_EQ(a.has_attributes(), b.has_attributes());
  if (a.has_attributes()) {
    EXPECT_TRUE(testing::BitwiseEqual(a.attributes(), b.attributes()));
  }
}

TEST(DynamicGraphTest, StartsIdenticalToBase) {
  Graph base = TriangleWithTail();
  DynamicGraph dg(base);
  EXPECT_EQ(dg.num_nodes(), 4);
  EXPECT_EQ(dg.num_edges(), 4);
  EXPECT_TRUE(dg.HasEdge(3, 2));
  EXPECT_TRUE(dg.PackedView().Validate().ok());
  ExpectSameGraph(dg.PackedView(), base);
}

TEST(DynamicGraphTest, AddAndRemoveEdges) {
  const Graph base = TriangleWithTail();
  DynamicGraph dg(base);
  EXPECT_TRUE(dg.AddEdge(3, 0));
  EXPECT_TRUE(dg.HasEdge(0, 3));
  EXPECT_EQ(dg.num_edges(), 5);
  // Rejected mutations leave no trace.
  EXPECT_FALSE(dg.AddEdge(0, 3));     // Duplicate.
  EXPECT_FALSE(dg.AddEdge(1, 1));     // Self-loop.
  EXPECT_FALSE(dg.AddEdge(0, 99));    // Out of range.
  EXPECT_FALSE(dg.AddEdge(-1, 2));    // Out of range.
  EXPECT_FALSE(dg.RemoveEdge(1, 3));  // Absent.
  EXPECT_FALSE(dg.RemoveEdge(0, 99));  // Out of range.
  EXPECT_EQ(dg.num_edges(), 5);

  EXPECT_TRUE(dg.RemoveEdge(2, 0));
  EXPECT_FALSE(dg.HasEdge(0, 2));
  EXPECT_EQ(dg.num_edges(), 4);
  EXPECT_TRUE(dg.PackedView().Validate().ok());
  const EdgeModel expected = {{0, 1}, {0, 3}, {1, 2}, {2, 3}};
  EXPECT_EQ(EdgesOf(dg.PackedView()), expected);
  ExpectSameGraph(dg.PackedView(), Rebuild(4, expected, base.attributes()));
}

TEST(DynamicGraphTest, CompactOnlyCountsAndPreservesEdges) {
  DynamicGraph dg(TriangleWithTail());
  dg.AddEdge(0, 3);
  dg.RemoveEdge(1, 2);
  const Graph before = dg.PackedView();
  dg.Compact();
  EXPECT_EQ(dg.stats().compactions, 1u);
  ExpectSameGraph(dg.PackedView(), before);
  dg.RestoreCompactions(7);
  dg.Compact();
  EXPECT_EQ(dg.stats().compactions, 8u);
}

TEST(GraphMutationWireTest, RoundTripsEdgeKindsAndRejectsTheRest) {
  for (const GraphMutation& m :
       {GraphMutation{GraphMutation::Kind::kAddEdge, 3, 17},
        GraphMutation{GraphMutation::Kind::kRemoveEdge, 0, 2147483647}}) {
    const std::string wire = FormatGraphMutation(m);
    GraphMutation back;
    ASSERT_TRUE(ParseGraphMutation(wire, &back)) << wire;
    EXPECT_EQ(back.kind, m.kind);
    EXPECT_EQ(back.u, m.u);
    EXPECT_EQ(back.v, m.v);
  }
  EXPECT_EQ(FormatGraphMutation({GraphMutation::Kind::kRemoveEdge, 1, 2}),
            "remove-edge 1 2");
  GraphMutation out;
  for (const char* bad :
       {"add-node 3 -1", "remove-node 3 -1", "add-edge 1 2 3", "add-edge 1",
        "add-edge 1 x", "add-edge 1 2x", "add-edge 1 4294967296", ""}) {
    EXPECT_FALSE(ParseGraphMutation(bad, &out)) << bad;
  }
}

TEST(DynamicGraphTest, RandomizedChurnMatchesRebuild) {
  // The oracle never reads the DynamicGraph: a std::set of edges takes the
  // same mutations, decides which of them apply, and is rebuilt through
  // GraphBuilder for a field-level comparison.
  const int n = 60;
  const Graph base = RandomGraph(n, 80, 4);
  DynamicGraph dg(base);
  EdgeModel model = EdgesOf(base);
  auto expect_model = [&](int step) {
    SCOPED_TRACE("step " + std::to_string(step));
    ASSERT_TRUE(dg.PackedView().Validate().ok());
    ExpectSameGraph(dg.PackedView(), Rebuild(n, model, base.attributes()));
    // ForEachEdge order on the packed view is the model's (u, v) order.
    const std::vector<std::pair<int, int>> ordered(model.begin(), model.end());
    EXPECT_EQ(reference::EdgeList(dg.PackedView()), ordered);
  };
  Rng rng(5);
  for (int step = 0; step < 400; ++step) {
    const int u = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
    const int v = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
    const std::pair<int, int> edge(std::min(u, v), std::max(u, v));
    const double roll = rng.Uniform();
    if (roll < 0.45) {
      const bool expect = u != v && model.insert(edge).second;
      EXPECT_EQ(dg.AddEdge(u, v), expect);
    } else if (roll < 0.95) {
      const bool expect = model.erase(edge) > 0;
      EXPECT_EQ(dg.RemoveEdge(u, v), expect);
    } else {
      dg.Compact();
    }
    EXPECT_EQ(dg.num_edges(), static_cast<int>(model.size()));
    if (step % 67 == 0) expect_model(step);
  }
  expect_model(400);
}

}  // namespace
}  // namespace grgad
