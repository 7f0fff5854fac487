// Graph operators: normalized adjacency, standardized powers, modularity
// projection, and the GraphSNN weighted adjacency of Eqn. (4).
#include <cmath>

#include <gtest/gtest.h>

#include "src/graph/algorithms.h"
#include "src/graph/graphsnn.h"
#include "src/graph/operators.h"
#include "tests/reference/reference_graph.h"

namespace grgad {
namespace {

Graph Triangle() {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  return b.Build();
}

Graph Path(int n) {
  GraphBuilder b(n);
  for (int i = 0; i + 1 < n; ++i) b.AddEdge(i, i + 1);
  return b.Build();
}

TEST(OperatorsTest, AdjacencyMatrixSymmetric) {
  Graph g = Triangle();
  SparseMatrix a = AdjacencyMatrix(g);
  EXPECT_EQ(a.nnz(), 6u);
  EXPECT_DOUBLE_EQ(a.At(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(a.At(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(a.At(0, 0), 0.0);
}

TEST(OperatorsTest, NormalizedAdjacencyRowSumsOnRegularGraph) {
  // On a d-regular graph, Â rows sum to exactly 1.
  Graph g = Triangle();
  auto a_norm = NormalizedAdjacency(g);
  const auto sums = a_norm->RowSums();
  for (double s : sums) EXPECT_NEAR(s, 1.0, 1e-12);
  // Self-loops present.
  EXPECT_GT(a_norm->At(0, 0), 0.0);
}

TEST(OperatorsTest, NormalizedAdjacencyHandlesIsolatedNodes) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  auto a_norm = NormalizedAdjacency(b.Build());
  // Isolated node 2 keeps only its self-loop with weight 1.
  EXPECT_NEAR(a_norm->At(2, 2), 1.0, 1e-12);
}

TEST(OperatorsTest, SymmetricNormalizeIsSymmetric) {
  Graph g = Path(5);
  SparseMatrix norm = SymmetricNormalize(AdjacencyMatrix(g), true);
  for (int i = 0; i < 5; ++i) {
    for (int j = 0; j < 5; ++j) {
      EXPECT_NEAR(norm.At(i, j), norm.At(j, i), 1e-12);
    }
  }
}

TEST(OperatorsTest, StandardizedPowerK1IsNormalizedAdjacency) {
  Graph g = Path(4);
  SparseMatrix p1 = StandardizedPower(g, 1);
  // Max-normalized row-stochastic walk matrix: entries in [0, 1], zero diag.
  EXPECT_DOUBLE_EQ(p1.At(0, 0), 0.0);
  EXPECT_GT(p1.At(0, 1), 0.0);
  EXPECT_LE(p1.MaxNormalized().At(0, 1), 1.0);
}

TEST(OperatorsTest, StandardizedPowerReachesKHops) {
  Graph g = Path(6);
  SparseMatrix p3 = StandardizedPower(g, 3);
  // After 3 steps, node 0 reaches node 3 but not node 5 (parity+distance).
  EXPECT_GT(p3.At(0, 3), 0.0);
  EXPECT_DOUBLE_EQ(p3.At(0, 5), 0.0);
  // 2 hops is reachable by a 3-step walk? No: path graph walks alternate
  // parity, so (0,2) needs an even number of steps.
  EXPECT_DOUBLE_EQ(p3.At(0, 2), 0.0);
  EXPECT_GT(p3.At(0, 1), 0.0);  // Step back and forth.
}

TEST(OperatorsTest, StandardizedPowerMaxIsOne) {
  Graph g = Path(8);
  for (int k : {2, 3, 5}) {
    SparseMatrix p = StandardizedPower(g, k);
    double max_v = 0.0;
    for (size_t i = 0; i < p.rows(); ++i) {
      for (double v : p.RowValues(i)) max_v = std::max(max_v, v);
    }
    EXPECT_NEAR(max_v, 1.0, 1e-12) << "k=" << k;
  }
}

TEST(OperatorsTest, StandardizedPowerRowCapPrunes) {
  // Star graph: center row of A^2 would touch all leaves' neighbors.
  GraphBuilder b(40);
  for (int i = 1; i < 40; ++i) b.AddEdge(0, i);
  Graph g = b.Build();
  SparseMatrix p2 = StandardizedPower(g, 2, /*row_cap=*/5);
  for (size_t i = 0; i < p2.rows(); ++i) {
    EXPECT_LE(p2.RowNnz(i), 5u);
  }
}

TEST(OperatorsTest, ModularityProjectionZeroForRegularStructure) {
  // On a complete graph, B = A - d d^T/2m has constant row structure; the
  // projection should have much smaller magnitude than for a star graph.
  GraphBuilder complete(6);
  for (int i = 0; i < 6; ++i) {
    for (int j = i + 1; j < 6; ++j) complete.AddEdge(i, j);
  }
  Matrix proj = ModularityProjection(complete.Build(), 8, 42);
  EXPECT_EQ(proj.rows(), 6u);
  EXPECT_EQ(proj.cols(), 8u);
  // Deterministic given the seed.
  Matrix proj2 = ModularityProjection(complete.Build(), 8, 42);
  EXPECT_TRUE(proj.ApproxEquals(proj2, 1e-12));
}

TEST(OperatorsTest, ModularityProjectionSeparatesCommunities) {
  // Two disjoint triangles: within-community rows should be more similar to
  // each other than to the other community's rows.
  GraphBuilder b(6);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  b.AddEdge(3, 4);
  b.AddEdge(4, 5);
  b.AddEdge(5, 3);
  Matrix proj = ModularityProjection(b.Build(), 16, 7);
  auto row_dist = [&proj](int a, int c) {
    double s = 0.0;
    for (size_t j = 0; j < proj.cols(); ++j) {
      const double d = proj(a, j) - proj(c, j);
      s += d * d;
    }
    return std::sqrt(s);
  };
  EXPECT_LT(row_dist(0, 1), row_dist(0, 3));
}

TEST(GraphSnnTest, EdgeWeightsOnTriangle) {
  // Triangle: every edge's closed-neighborhood overlap is all 3 nodes with
  // 3 internal edges -> weight = 3/(3*2) * 3^1 = 1.5.
  Graph g = Triangle();
  const auto w = GraphSnnEdgeWeights(g, 1.0);
  ASSERT_EQ(w.size(), 3u);
  for (double v : w) EXPECT_NEAR(v, 1.5, 1e-12);
}

TEST(GraphSnnTest, PathEdgesHaveSmallOverlap) {
  // Path 0-1-2: overlap of (0,1) is {0,1,2}? Closed nbhd of 0 = {0,1},
  // of 1 = {0,1,2} -> overlap {0,1} with 1 edge -> 1/(2*1)*2 = 1.
  Graph g = Path(3);
  const auto w = GraphSnnEdgeWeights(g, 1.0);
  ASSERT_EQ(w.size(), 2u);
  EXPECT_NEAR(w[0], 1.0, 1e-12);
  EXPECT_NEAR(w[1], 1.0, 1e-12);
}

TEST(GraphSnnTest, TriangleEdgesWeighMoreThanBridges) {
  // Triangle + pendant: the in-triangle edges must outweigh the bridge.
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(1, 2);
  b.AddEdge(2, 0);
  b.AddEdge(2, 3);
  Graph g = b.Build();
  const auto edges = reference::EdgeList(g);
  const auto w = GraphSnnEdgeWeights(g, 1.0);
  double triangle_min = 1e9, bridge = -1;
  for (size_t e = 0; e < edges.size(); ++e) {
    if (edges[e] == std::make_pair(2, 3)) {
      bridge = w[e];
    } else {
      triangle_min = std::min(triangle_min, w[e]);
    }
  }
  EXPECT_GT(triangle_min, bridge);
}

TEST(GraphSnnTest, AdjacencyMatchesSparsityPatternOfA) {
  Graph g = Triangle();
  GraphSnnOptions options;
  SparseMatrix snn = GraphSnnAdjacency(g, options);
  EXPECT_EQ(snn.nnz(), 6u);
  EXPECT_NEAR(snn.At(0, 1), snn.At(1, 0), 1e-12);
  // Max-normalized: top weight exactly 1.
  double max_v = 0.0;
  for (size_t i = 0; i < snn.rows(); ++i) {
    for (double v : snn.RowValues(i)) max_v = std::max(max_v, v);
  }
  EXPECT_NEAR(max_v, 1.0, 1e-12);
}

TEST(GraphSnnTest, LambdaScalesWeights) {
  Graph g = Triangle();
  const auto w1 = GraphSnnEdgeWeights(g, 1.0);
  const auto w2 = GraphSnnEdgeWeights(g, 2.0);
  EXPECT_NEAR(w2[0] / w1[0], 3.0, 1e-12);  // |V|^2 / |V|^1 with |V| = 3.
}

}  // namespace
}  // namespace grgad
