// TPGCL components: PPA/PBA postconditions (Alg. 2), conventional
// augmentations, the MINE objective, graph batching, and end-to-end
// separation of anomalous candidate groups.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include <gtest/gtest.h>

#include "src/data/example_graph.h"
#include "src/nn/optim.h"
#include "src/gcl/augmentations.h"
#include "src/gcl/mine.h"
#include "src/gcl/tpgcl.h"
#include "src/metrics/classification.h"
#include "src/metrics/completeness.h"
#include "src/sampling/pattern_search.h"
#include "src/util/thread_pool.h"
#include "src/viz/tsne.h"
#include "tests/kernel_test_util.h"
#include "tests/reference/reference_autograd.h"

namespace grgad {
namespace {

Graph AttributedRing(int n, int d = 4) {
  GraphBuilder b(n);
  for (int i = 0; i < n; ++i) b.AddEdge(i, (i + 1) % n);
  Matrix x(n, d, 1.0);
  return b.Build(std::move(x));
}

Graph AttributedPath(int n, int d = 4) {
  GraphBuilder b(n);
  for (int i = 0; i + 1 < n; ++i) b.AddEdge(i, i + 1);
  Matrix x(n, d, 1.0);
  return b.Build(std::move(x));
}

Graph AttributedStar(int leaves, int d = 4) {
  GraphBuilder b(leaves + 1);
  for (int i = 1; i <= leaves; ++i) b.AddEdge(0, i);
  Matrix x(leaves + 1, d, 1.0);
  return b.Build(std::move(x));
}

TEST(AugmentationTest, Names) {
  EXPECT_STREQ(ToString(AugmentationKind::kPba), "PBA");
  EXPECT_STREQ(ToString(AugmentationKind::kPpa), "PPA");
  EXPECT_STREQ(ToString(AugmentationKind::kNodeDrop), "ND");
  EXPECT_STREQ(ToString(AugmentationKind::kEdgeRemove), "ER");
  EXPECT_STREQ(ToString(AugmentationKind::kFeatureMask), "FM");
}

TEST(AugmentationTest, PbaBreaksCycle) {
  Graph ring = AttributedRing(6);
  const FoundPatterns patterns = SearchPatterns(ring);
  ASSERT_EQ(patterns.cycles.size(), 1u);
  Rng rng(1);
  Graph broken = Augment(ring, AugmentationKind::kPba, patterns, &rng);
  EXPECT_EQ(broken.num_nodes(), 4);  // Two ring nodes dropped.
  // No cycle remains.
  EXPECT_TRUE(SearchPatterns(broken).cycles.empty());
}

TEST(AugmentationTest, PbaDropsPathMiddle) {
  Graph path = AttributedPath(7);
  const FoundPatterns patterns = SearchPatterns(path);
  ASSERT_EQ(patterns.paths.size(), 1u);
  Rng rng(2);
  Graph broken = Augment(path, AugmentationKind::kPba, patterns, &rng);
  EXPECT_EQ(broken.num_nodes(), 6);
  // The chain is severed: no endpoint-to-endpoint path of length 6 remains.
  const FoundPatterns after = SearchPatterns(broken);
  for (const auto& p : after.paths) EXPECT_LT(p.size(), 6u);
}

TEST(AugmentationTest, PbaDropsTreeRoot) {
  Graph star = AttributedStar(5);
  const FoundPatterns patterns = SearchPatterns(star);
  ASSERT_FALSE(patterns.trees.empty());
  Rng rng(3);
  Graph broken = Augment(star, AugmentationKind::kPba, patterns, &rng);
  EXPECT_EQ(broken.num_nodes(), 5);
  EXPECT_EQ(broken.num_edges(), 0);  // Hub removal isolates all leaves.
}

TEST(AugmentationTest, PbaOnPatternlessGroupStillPerturbs) {
  // Two disconnected dyads: no tree/path(>=3)/cycle patterns.
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  b.AddEdge(2, 3);
  Graph g = b.Build(Matrix(4, 2, 1.0));
  Rng rng(4);
  Graph out = Augment(g, AugmentationKind::kPba, SearchPatterns(g), &rng);
  EXPECT_LT(out.num_nodes(), 4);
}

TEST(AugmentationTest, PpaExtendsCyclePreservingIt) {
  Graph ring = AttributedRing(5);
  const FoundPatterns patterns = SearchPatterns(ring);
  Rng rng(5);
  Graph extended = Augment(ring, AugmentationKind::kPpa, patterns, &rng);
  EXPECT_EQ(extended.num_nodes(), 6);
  EXPECT_EQ(extended.num_edges(), 7);  // Ring + bridge node with 2 links.
  EXPECT_FALSE(SearchPatterns(extended).cycles.empty());
  // New node attribute = mean of cycle attrs = 1.0.
  EXPECT_DOUBLE_EQ(extended.attributes()(5, 0), 1.0);
}

TEST(AugmentationTest, PpaProlongsPath) {
  Graph path = AttributedPath(5);
  Rng rng(6);
  Graph extended =
      Augment(path, AugmentationKind::kPpa, SearchPatterns(path), &rng);
  EXPECT_EQ(extended.num_nodes(), 6);
  // Still a path: the new endpoint chain is longer.
  const FoundPatterns after = SearchPatterns(extended);
  ASSERT_FALSE(after.paths.empty());
  EXPECT_EQ(after.paths[0].size(), 6u);
}

TEST(AugmentationTest, PpaAddsChildToTreeRoot) {
  Graph star = AttributedStar(4);
  Rng rng(7);
  Graph extended =
      Augment(star, AugmentationKind::kPpa, SearchPatterns(star), &rng);
  EXPECT_EQ(extended.num_nodes(), 6);
  EXPECT_EQ(extended.Degree(0), 5);  // Root gained a child.
}

TEST(AugmentationTest, NodeDropRemovesAtLeastOne) {
  Graph ring = AttributedRing(8);
  Rng rng(8);
  Graph out = Augment(ring, AugmentationKind::kNodeDrop, {}, &rng);
  EXPECT_LT(out.num_nodes(), 8);
  EXPECT_GE(out.num_nodes(), 1);
}

TEST(AugmentationTest, EdgeRemoveKeepsNodes) {
  Graph ring = AttributedRing(8);
  Rng rng(9);
  Graph out = Augment(ring, AugmentationKind::kEdgeRemove, {}, &rng);
  EXPECT_EQ(out.num_nodes(), 8);
  EXPECT_LT(out.num_edges(), 8);
}

TEST(AugmentationTest, FeatureMaskZeroesSharedDims) {
  Graph ring = AttributedRing(6, 10);
  Rng rng(10);
  Graph out = Augment(ring, AugmentationKind::kFeatureMask, {}, &rng);
  EXPECT_EQ(out.num_nodes(), 6);
  EXPECT_EQ(out.num_edges(), 6);
  int zero_dims = 0;
  for (size_t j = 0; j < out.attr_dim(); ++j) {
    bool all_zero = true;
    for (int v = 0; v < out.num_nodes(); ++v) {
      all_zero &= (out.attributes()(v, j) == 0.0);
    }
    zero_dims += all_zero;
  }
  EXPECT_GE(zero_dims, 1);
  EXPECT_LT(zero_dims, 10);
}

TEST(GraphBatchTest, BlockDiagonalStructure) {
  std::vector<Graph> graphs = {AttributedRing(3), AttributedPath(4)};
  const GraphBatch batch = BuildGraphBatch(graphs);
  EXPECT_EQ(batch.op->rows(), 7u);
  EXPECT_EQ(batch.x.rows(), 7u);
  EXPECT_EQ(batch.pool->rows(), 2u);
  // No cross-block entries.
  for (size_t i = 0; i < 3; ++i) {
    for (int j : batch.op->RowCols(i)) EXPECT_LT(j, 3);
  }
  for (size_t i = 3; i < 7; ++i) {
    for (int j : batch.op->RowCols(i)) EXPECT_GE(j, 3);
  }
  // Pool rows are means: each row sums to 1.
  const auto sums = batch.pool->RowSums();
  EXPECT_NEAR(sums[0], 1.0, 1e-12);
  EXPECT_NEAR(sums[1], 1.0, 1e-12);
}

TEST(MineTest, LossIsFiniteAndTrainable) {
  Rng rng(11);
  MineEstimator phi(8, 16, &rng);
  // Matched pairs identical, mismatched pairs random: loss should be
  // drivable below its initial value by training phi alone.
  Matrix zp_data = Matrix::Gaussian(12, 8, &rng);
  Matrix zn_data = zp_data;  // Perfectly dependent.
  Var zp(zp_data), zn(zn_data);
  AdamOptions adam_options;
  adam_options.lr = 1e-2;
  Adam adam(phi.Params(), adam_options);
  double first = 0.0, last = 0.0;
  for (int i = 0; i < 120; ++i) {
    adam.ZeroGrad();
    Rng loss_rng(100 + i);
    Var loss = MineLoss(phi, zp, zn, /*neg_per_sample=*/11, &loss_rng);
    loss.Backward();
    adam.Step();
    if (i == 0) first = loss.item();
    last = loss.item();
    ASSERT_TRUE(std::isfinite(last));
  }
  EXPECT_LT(last, first);
  // The DV bound of dependent variables is positive MI: loss = -MI < 0.
  EXPECT_LT(last, 0.0);
}

TEST(MineTest, SubsampledMatchesFullOnAverage) {
  Rng rng(12);
  MineEstimator phi(4, 8, &rng);
  Matrix zp = Matrix::Gaussian(10, 4, &rng);
  Matrix zn = Matrix::Gaussian(10, 4, &rng);
  Rng r1(1);
  const double full =
      MineLoss(phi, Var(zp), Var(zn), 9, &r1).item();
  // Average many subsampled estimates.
  double acc = 0.0;
  const int reps = 40;
  for (int i = 0; i < reps; ++i) {
    Rng r2(100 + i);
    acc += MineLoss(phi, Var(zp), Var(zn), 4, &r2).item();
  }
  EXPECT_NEAR(acc / reps, full, 0.35);
}

// The fused critic's inputs and parameters, in one list:
// {z_pos, z_neg, W_a, W_b, b1, W2, b2}.
struct MineFixture {
  MineFixture(int m, int d, int h, uint64_t seed) : rng(seed), phi(d, h, &rng) {
    z_pos = Var(Matrix::Gaussian(m, d, &rng), /*requires_grad=*/true);
    z_neg = Var(Matrix::Gaussian(m, d, &rng), /*requires_grad=*/true);
    // Nonzero biases, so the gradient checks see them shift the ReLU mask.
    std::vector<Var> params = phi.Params();
    params[2].mutable_value() = Matrix::Gaussian(1, h, &rng);
    params[4].mutable_value()(0, 0) = 0.3;
  }
  std::vector<Var> Leaves() const {
    std::vector<Var> out = {z_pos, z_neg};
    for (const Var& p : phi.Params()) out.push_back(p);
    return out;
  }
  /// The loss with the negatives of `draw_seed`.
  Var Loss(int k, uint64_t draw_seed) const {
    Rng draws(draw_seed);
    return MineLoss(phi, z_pos, z_neg, k, &draws);
  }
  /// Loss and the gradient of every leaf.
  double LossAndGrads(int k, uint64_t draw_seed, std::vector<Matrix>* grads) {
    for (Var& v : Leaves()) v.ZeroGrad();
    Var loss = Loss(k, draw_seed);
    loss.Backward();
    grads->clear();
    for (const Var& v : Leaves()) grads->push_back(v.grad());
    return loss.item();
  }

  Rng rng;
  MineEstimator phi;
  Var z_pos, z_neg;
};

double MaxAbs(const Matrix& a) {
  double out = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    out = std::max(out, std::abs(a.data()[i]));
  }
  return out;
}

// Central differences of the fused loss against its hand-written backward,
// for every leaf, at a subsampled and at the exact double sum.
TEST(MineTest, FusedGradientsMatchFiniteDifferences) {
  constexpr int kM = 7;
  for (int k : {3, kM - 1}) {
    MineFixture f(kM, 3, 5, 21);
    std::vector<Matrix> grads;
    f.LossAndGrads(k, 77, &grads);
    const std::vector<Var> leaves = f.Leaves();
    for (size_t l = 0; l < leaves.size(); ++l) {
      Var leaf = leaves[l];
      ASSERT_EQ(grads[l].size(), leaf.value().size()) << l;
      for (size_t e = 0; e < leaf.value().size(); ++e) {
        double& x = leaf.mutable_value().data()[e];
        const double x0 = x;
        const double eps = 1e-6;
        x = x0 + eps;
        const double up = f.Loss(k, 77).item();
        x = x0 - eps;
        const double down = f.Loss(k, 77).item();
        x = x0;
        const double numeric = (up - down) / (2 * eps);
        EXPECT_NEAR(grads[l].data()[e], numeric,
                    1e-6 * std::max(1.0, std::abs(numeric)))
            << "k=" << k << " leaf " << l << " entry " << e;
      }
    }
  }
}

// The fused node against the pair-matrix composition it replaced: same
// negatives, W1 = [W_a; W_b]; only the summation order differs.
TEST(MineTest, FusedMatchesUnfusedComposition) {
  constexpr int kM = 40, kD = 6, kH = 9;
  for (int k : {5, kM - 1}) {
    MineFixture f(kM, kD, kH, 22);
    std::vector<Matrix> grads;
    const double loss = f.LossAndGrads(k, 78, &grads);

    const std::vector<Var> params = f.phi.Params();
    Matrix w1(2 * kD, kH);
    std::memcpy(w1.RowPtr(0), params[0].value().data(),
                kD * kH * sizeof(double));
    std::memcpy(w1.RowPtr(kD), params[1].value().data(),
                kD * kH * sizeof(double));
    std::vector<Var> ref = {Var(f.z_pos.value(), true),
                            Var(f.z_neg.value(), true), Var(w1, true),
                            Var(params[2].value(), true),
                            Var(params[3].value(), true),
                            Var(params[4].value(), true)};
    Rng draws(78);
    Var ref_loss = reference::UnfusedMineLoss(ref[0], ref[1], ref[2], ref[3],
                                              ref[4], ref[5], k, &draws);
    ref_loss.Backward();
    EXPECT_NEAR(loss, ref_loss.item(), 1e-12 * std::abs(ref_loss.item()));

    // The reference's dW1 stacks dW_a over dW_b.
    Matrix dw_a(kD, kH), dw_b(kD, kH);
    std::memcpy(dw_a.data(), ref[2].grad().RowPtr(0),
                kD * kH * sizeof(double));
    std::memcpy(dw_b.data(), ref[2].grad().RowPtr(kD),
                kD * kH * sizeof(double));
    const std::vector<Matrix> expected = {ref[0].grad(), ref[1].grad(), dw_a,
                                          dw_b,          ref[3].grad(),
                                          ref[4].grad(), ref[5].grad()};
    for (size_t l = 0; l < expected.size(); ++l) {
      ASSERT_EQ(grads[l].size(), expected[l].size()) << l;
      // db2 is zero up to rounding (the loss does not move when every score
      // shifts by the same constant): the matched mean contributes -1 and
      // the softmax weights +1, so 1 is its scale.
      const double scale = l == 6 ? 1.0 : MaxAbs(expected[l]);
      ASSERT_GT(scale, 0.0) << l;
      for (size_t e = 0; e < expected[l].size(); ++e) {
        EXPECT_NEAR(grads[l].data()[e], expected[l].data()[e], 1e-12 * scale)
            << "k=" << k << " leaf " << l << " entry " << e;
      }
    }
  }
}

// At TPGCL's default shape (2048 groups, 32 negatives, 64 wide) every
// pass of the fused node runs parallel; loss and gradients must not change
// by a bit with the degree.
TEST(MineTest, FusedIsBitwiseAcrossParallelDegrees) {
  struct DegreeGuard {
    ~DegreeGuard() { internal::SetParallelismDegreeForTest(0); }
  } guard;
  double loss1 = 0.0;
  std::vector<Matrix> grads1;
  for (int degree : {1, 4, 7}) {
    internal::SetParallelismDegreeForTest(degree);
    MineFixture f(2048, 64, 64, 23);
    std::vector<Matrix> grads;
    const double loss = f.LossAndGrads(32, 79, &grads);
    ASSERT_TRUE(std::isfinite(loss));
    if (degree == 1) {
      loss1 = loss;
      grads1 = grads;
      continue;
    }
    EXPECT_EQ(std::memcmp(&loss, &loss1, sizeof(double)), 0) << degree;
    ASSERT_EQ(grads.size(), grads1.size());
    for (size_t l = 0; l < grads.size(); ++l) {
      EXPECT_TRUE(testing::BitwiseEqual(grads[l], grads1[l]))
          << "degree " << degree << " leaf " << l;
    }
  }
}

TEST(TpgclTest, EmbedsAndSeparatesPlantedGroups) {
  const Dataset d = GenExampleGraph({});
  // Candidates: the three planted groups + background path-ish chunks.
  std::vector<std::vector<int>> candidates = d.anomaly_groups;
  Rng rng(13);
  for (int i = 0; i < 21; ++i) {
    std::vector<int> chunk;
    const int start = static_cast<int>(rng.UniformInt(uint64_t{80}));
    for (int k = 0; k < 6; ++k) chunk.push_back(start + k > 89 ? start - k
                                                               : start + k);
    std::sort(chunk.begin(), chunk.end());
    chunk.erase(std::unique(chunk.begin(), chunk.end()), chunk.end());
    candidates.push_back(chunk);
  }
  TpgclOptions options;
  options.epochs = 40;
  options.hidden_dim = 32;
  options.embed_dim = 16;
  Tpgcl tpgcl(options);
  const TpgclResult result = tpgcl.FitEmbed(d.graph, candidates);
  ASSERT_EQ(result.embeddings.rows(), candidates.size());
  EXPECT_EQ(result.embeddings.cols(), 16u);
  ASSERT_EQ(result.loss_history.size(), 40u);
  for (double loss : result.loss_history) EXPECT_TRUE(std::isfinite(loss));
  // Anomalous groups (first 3 rows) must be separable from the rest:
  // centroid separation in embedding space above random.
  std::vector<int> labels(candidates.size(), 0);
  labels[0] = labels[1] = labels[2] = 1;
  EXPECT_GT(BinarySeparationScore(result.embeddings, labels), -0.2);
}

TEST(TpgclTest, DeterministicGivenSeed) {
  const Dataset d = GenExampleGraph({});
  std::vector<std::vector<int>> candidates = d.anomaly_groups;
  candidates.push_back({0, 1, 2, 3});
  candidates.push_back({10, 11, 12, 13});
  TpgclOptions options;
  options.epochs = 5;
  const TpgclResult a = Tpgcl(options).FitEmbed(d.graph, candidates);
  const TpgclResult b = Tpgcl(options).FitEmbed(d.graph, candidates);
  EXPECT_TRUE(a.embeddings.ApproxEquals(b.embeddings, 1e-12));
  EXPECT_EQ(a.loss_history, b.loss_history);
}

TEST(TpgclTest, WorksWithConventionalAugmentations) {
  const Dataset d = GenExampleGraph({});
  std::vector<std::vector<int>> candidates = d.anomaly_groups;
  candidates.push_back({0, 1, 2, 3, 4});
  candidates.push_back({20, 21, 22, 23});
  for (auto aug : {AugmentationKind::kNodeDrop, AugmentationKind::kEdgeRemove,
                   AugmentationKind::kFeatureMask}) {
    TpgclOptions options;
    options.epochs = 5;
    options.negative_aug = aug;
    options.positive_aug = AugmentationKind::kPpa;
    const TpgclResult result =
        Tpgcl(options).FitEmbed(d.graph, candidates);
    EXPECT_EQ(result.embeddings.rows(), candidates.size())
        << ToString(aug);
  }
}

}  // namespace
}  // namespace grgad
