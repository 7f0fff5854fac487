// DynamicGraph: slack-CSR mutation semantics, the immutable read contract
// (sorted rows, ForEachEdge-order streaming), delta log + compaction, the
// wire form of a mutation, and the
// canonical-PackedView equivalence against a from-scratch GraphBuilder
// rebuild under randomized churn.
#include "src/graph/dynamic_graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "src/graph/algorithms.h"
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

/// The graph a from-scratch GraphBuilder would produce from dg's edge set.
Graph Rebuild(const DynamicGraph& dg) {
  GraphBuilder b(dg.num_nodes());
  dg.ForEachEdge([&b](int u, int v) { b.AddEdge(u, v); });
  return b.Build(dg.PackedView().attributes());
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
  EXPECT_EQ(dg.Degree(2), 3);
  auto nb = dg.Neighbors(2);
  EXPECT_EQ(std::vector<int>(nb.begin(), nb.end()),
            (std::vector<int>{0, 1, 3}));
  EXPECT_TRUE(dg.Validate().ok());
  ExpectSameGraph(dg.PackedView(), base);
  EXPECT_TRUE(dg.DeltaLog().empty());
}

TEST(DynamicGraphTest, AddAndRemoveEdges) {
  DynamicGraph dg(TriangleWithTail());
  EXPECT_TRUE(dg.AddEdge(0, 3));
  EXPECT_TRUE(dg.HasEdge(3, 0));
  EXPECT_EQ(dg.num_edges(), 5);
  // Rejected mutations leave no trace.
  EXPECT_FALSE(dg.AddEdge(0, 3));   // Duplicate.
  EXPECT_FALSE(dg.AddEdge(1, 1));   // Self-loop.
  EXPECT_FALSE(dg.AddEdge(0, 99));  // Out of range.
  EXPECT_FALSE(dg.RemoveEdge(1, 3));  // Absent.
  EXPECT_EQ(dg.num_edges(), 5);
  EXPECT_EQ(dg.DeltaLog().size(), 1u);

  EXPECT_TRUE(dg.RemoveEdge(2, 0));
  EXPECT_FALSE(dg.HasEdge(0, 2));
  EXPECT_EQ(dg.num_edges(), 4);
  EXPECT_TRUE(dg.Validate().ok());
  ExpectSameGraph(dg.PackedView(), Rebuild(dg));

  const DynamicGraphStats stats = dg.stats();
  EXPECT_EQ(stats.edges_added, 1u);
  EXPECT_EQ(stats.edges_removed, 1u);
  EXPECT_EQ(stats.pending_log, 2u);
}

TEST(DynamicGraphTest, SlackOverflowRegrows) {
  // A star center accumulates edges far beyond its initial slack: fan
  // edges from node 0 into the 30 isolated nodes.
  DynamicGraph dg(TriangleWithTail(/*num_nodes=*/34));
  for (int v = 4; v < 34; ++v) EXPECT_TRUE(dg.AddEdge(0, v));
  EXPECT_EQ(dg.Degree(0), 32);
  EXPECT_GE(dg.stats().regrows, 1u);
  EXPECT_TRUE(dg.Validate().ok());
  ExpectSameGraph(dg.PackedView(), Rebuild(dg));
}

TEST(DynamicGraphTest, ForEachEdgeMatchesPackedEdgesOrder) {
  DynamicGraph dg(RandomGraph(30, 40, 2));
  Rng rng(3);
  for (int i = 0; i < 25; ++i) {
    const int u = static_cast<int>(rng.UniformInt(30));
    const int v = static_cast<int>(rng.UniformInt(30));
    if (rng.Bernoulli(0.5)) {
      dg.AddEdge(u, v);
    } else {
      dg.RemoveEdge(u, v);
    }
  }
  std::vector<std::pair<int, int>> streamed;
  dg.ForEachEdge([&](int u, int v) { streamed.emplace_back(u, v); });
  EXPECT_EQ(streamed, reference::EdgeList(dg.PackedView()));
  EXPECT_EQ(static_cast<int>(streamed.size()), dg.num_edges());
}

TEST(DynamicGraphTest, CompactTruncatesLogAndPreservesEdges) {
  DynamicGraph dg(TriangleWithTail());
  dg.AddEdge(0, 3);
  dg.RemoveEdge(1, 2);
  EXPECT_EQ(dg.DeltaLog().size(), 2u);
  const Graph before = dg.PackedView();
  dg.Compact();
  EXPECT_TRUE(dg.DeltaLog().empty());
  EXPECT_EQ(dg.stats().compactions, 1u);
  EXPECT_TRUE(dg.Validate().ok());
  ExpectSameGraph(dg.PackedView(), before);
}

TEST(DynamicGraphTest, DeltaLogRecordsNormalizedMutations) {
  DynamicGraph dg(TriangleWithTail());
  dg.AddEdge(3, 0);     // Logged as (0, 3).
  dg.RemoveEdge(2, 1);  // Logged as (1, 2).
  ASSERT_EQ(dg.DeltaLog().size(), 2u);
  EXPECT_EQ(dg.DeltaLog()[0].kind, GraphMutation::Kind::kAddEdge);
  EXPECT_EQ(dg.DeltaLog()[0].u, 0);
  EXPECT_EQ(dg.DeltaLog()[0].v, 3);
  EXPECT_EQ(dg.DeltaLog()[1].kind, GraphMutation::Kind::kRemoveEdge);
  EXPECT_EQ(dg.DeltaLog()[1].u, 1);
  EXPECT_EQ(dg.DeltaLog()[1].v, 2);
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
  const int n = 60;
  DynamicGraph dg(RandomGraph(n, 80, 4));
  Rng rng(5);
  for (int step = 0; step < 400; ++step) {
    const int u = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
    const int v = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
    const double roll = rng.Uniform();
    if (roll < 0.45) {
      const bool expect = u != v && !dg.HasEdge(u, v);
      EXPECT_EQ(dg.AddEdge(u, v), expect);
    } else if (roll < 0.95) {
      const bool expect = dg.HasEdge(u, v);
      EXPECT_EQ(dg.RemoveEdge(u, v), expect);
    } else {
      dg.Compact();
    }
    if (step % 67 == 0) {
      ASSERT_TRUE(dg.Validate().ok()) << "step " << step;
      ExpectSameGraph(dg.PackedView(), Rebuild(dg));
    }
  }
  ASSERT_TRUE(dg.Validate().ok());
  ExpectSameGraph(dg.PackedView(), Rebuild(dg));
}

TEST(DynamicGraphTest, TemplatedTraversalsRunOnTheLiveView) {
  // The templated algorithms accept any Graph-shaped type: BFS trees and
  // cycle enumeration over the live DynamicGraph must match the same
  // traversal over the canonical packed view.
  DynamicGraph dg(RandomGraph(40, 50, 6));
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    const int u = static_cast<int>(rng.UniformInt(40));
    const int v = static_cast<int>(rng.UniformInt(40));
    if (rng.Bernoulli(0.5)) {
      dg.AddEdge(u, v);
    } else {
      dg.RemoveEdge(u, v);
    }
  }
  const Graph& packed = dg.PackedView();
  for (int root : {0, 7, 23}) {
    const BfsTree live = BuildBfsTree(dg, root, 4);
    const BfsTree gold = BuildBfsTree(packed, root, 4);
    EXPECT_EQ(live.parent, gold.parent);
    EXPECT_EQ(live.depth, gold.depth);
    EXPECT_EQ(live.order, gold.order);
    EXPECT_EQ(CyclesThrough(dg, root, 6, 16),
              CyclesThrough(packed, root, 6, 16));
  }
}

}  // namespace
}  // namespace grgad
