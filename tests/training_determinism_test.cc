// End-to-end training determinism: the arena-backed autograd, fused
// affine, and fused optimizer paths must produce training outputs (loss
// history, embeddings, per-node errors) byte-identical to the pre-arena
// implementation and invariant across thread counts. The golden hashes
// below pin those exact bytes so a change that silently shifts training
// numerics fails loudly.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/baselines/as_gae.h"
#include "src/baselines/deepfd.h"
#include "src/baselines/group_extraction.h"
#include "src/data/example_graph.h"
#include "src/gae/comga.h"
#include "src/gae/deep_ae.h"
#include "src/gae/dominant.h"
#include "src/gae/gae_base.h"
#include "src/gcl/tpgcl.h"
#include "src/nn/optim.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/kernel_test_util.h"
#include "tests/reference/reference_autograd.h"

namespace grgad {
namespace {

uint64_t Fnv1a(const void* data, size_t bytes, uint64_t h) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

uint64_t HashDoubles(const std::vector<double>& v, uint64_t h) {
  return Fnv1a(v.data(), v.size() * sizeof(double), h);
}

uint64_t HashMatrix(const Matrix& m, uint64_t h) {
  return Fnv1a(m.data(), m.size() * sizeof(double), h);
}

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;

/// The example graph every fingerprint below trains on.
Dataset ExampleDataset() {
  DatasetOptions data_options;
  data_options.seed = 7;
  return GenExampleGraph(data_options);
}

/// One byte-exact fingerprint over every training output of a GAE fit.
uint64_t GaeFingerprint() {
  const Dataset d = ExampleDataset();
  GaeOptions options;
  options.epochs = 12;
  options.hidden_dim = 16;
  options.embed_dim = 8;
  options.target = ReconTarget::kGraphSnn;
  options.seed = 3;
  const GaeResult r = GcnGae(options).Fit(d.graph);
  uint64_t h = kFnvOffset;
  h = HashDoubles(r.loss_history, h);
  h = HashDoubles(r.node_errors, h);
  h = HashDoubles(r.structure_errors, h);
  h = HashDoubles(r.attribute_errors, h);
  h = HashMatrix(r.embeddings, h);
  return h;
}

uint64_t TpgclFingerprint() {
  const Dataset d = ExampleDataset();
  std::vector<std::vector<int>> candidates = d.anomaly_groups;
  for (int i = 0; i < 8; ++i) candidates.push_back({i, i + 1, i + 2, i + 3});
  TpgclOptions options;
  options.epochs = 8;
  options.hidden_dim = 16;
  options.embed_dim = 8;
  options.seed = 5;
  const TpgclResult r = Tpgcl(options).FitEmbed(d.graph, candidates);
  uint64_t h = kFnvOffset;
  h = HashDoubles(r.loss_history, h);
  h = HashMatrix(r.embeddings, h);
  return h;
}

uint64_t DeepAeFingerprint() {
  const Dataset d = ExampleDataset();
  DeepAeOptions options;
  options.epochs = 10;
  options.seed = 9;
  return HashDoubles(DeepAe(options).FitNodeScores(d.graph), kFnvOffset);
}

/// Hashes every group's size, members and score, in output order.
uint64_t HashGroups(const std::vector<ScoredGroup>& groups, uint64_t h) {
  for (const ScoredGroup& group : groups) {
    const uint64_t size = group.nodes.size();
    h = Fnv1a(&size, sizeof(size), h);
    h = Fnv1a(group.nodes.data(), group.nodes.size() * sizeof(int), h);
    h = Fnv1a(&group.score, sizeof(group.score), h);
  }
  return h;
}

/// Group cap of the group-level baselines below: small enough that each
/// of them truncates an oversized group (GroupGoldensExerciseTheCap).
constexpr int kGroupCap = 3;

uint64_t ComGaFingerprint() {
  const Dataset d = ExampleDataset();
  ComGaOptions options;
  options.epochs = 10;
  options.hidden_dim = 16;
  options.embed_dim = 8;
  options.modularity_dim = 8;
  options.seed = 11;
  return HashDoubles(ComGa(options).FitNodeScores(d.graph), kFnvOffset);
}

std::vector<ScoredGroup> DeepFdGroups(int max_group_size) {
  const Dataset d = ExampleDataset();
  DeepFdOptions options;
  options.epochs = 10;
  options.hidden_dim = 16;
  options.embed_dim = 8;
  options.contamination = 0.2;
  options.max_group_size = max_group_size;
  options.seed = 13;
  return DeepFd(options).DetectGroups(d.graph);
}

std::vector<ScoredGroup> AsGaeGroups(int max_group_size) {
  const Dataset d = ExampleDataset();
  AsGaeOptions options;
  options.gae.epochs = 10;
  options.gae.hidden_dim = 16;
  options.gae.embed_dim = 8;
  options.gae.seed = 17;
  options.max_group_size = max_group_size;
  return AsGae(options).DetectGroups(d.graph);
}

/// DOMINANT scores turned into groups by the connected-component adapter.
std::vector<ScoredGroup> DominantCcGroups(int max_group_size) {
  const Dataset d = ExampleDataset();
  GaeOptions gae;
  gae.epochs = 10;
  gae.hidden_dim = 16;
  gae.embed_dim = 8;
  gae.seed = 19;
  GroupExtractionOptions extraction;
  extraction.contamination = 0.15;
  extraction.max_group_size = max_group_size;
  return NodeScorerGroupAdapter(std::make_shared<Dominant>(gae), extraction)
      .DetectGroups(d.graph);
}

uint64_t DeepFdFingerprint() {
  return HashGroups(DeepFdGroups(kGroupCap), kFnvOffset);
}
uint64_t AsGaeFingerprint() {
  return HashGroups(AsGaeGroups(kGroupCap), kFnvOffset);
}
uint64_t DominantCcFingerprint() {
  return HashGroups(DominantCcGroups(kGroupCap), kFnvOffset);
}

size_t LargestGroup(const std::vector<ScoredGroup>& groups) {
  size_t largest = 0;
  for (const ScoredGroup& group : groups) {
    largest = std::max(largest, group.nodes.size());
  }
  return largest;
}

/// Restores the default parallelism degree on scope exit.
struct DegreeGuard {
  ~DegreeGuard() { internal::SetParallelismDegreeForTest(0); }
};

TEST(TrainingDeterminismTest, OutputsInvariantAcrossThreadCounts) {
  DegreeGuard guard;
  internal::SetParallelismDegreeForTest(1);
  const uint64_t gae1 = GaeFingerprint();
  const uint64_t tpgcl1 = TpgclFingerprint();
  const uint64_t deepae1 = DeepAeFingerprint();
  const uint64_t comga1 = ComGaFingerprint();
  const uint64_t deepfd1 = DeepFdFingerprint();
  const uint64_t as_gae1 = AsGaeFingerprint();
  const uint64_t dominant_cc1 = DominantCcFingerprint();
  internal::SetParallelismDegreeForTest(4);
  EXPECT_EQ(GaeFingerprint(), gae1);
  EXPECT_EQ(TpgclFingerprint(), tpgcl1);
  EXPECT_EQ(DeepAeFingerprint(), deepae1);
  EXPECT_EQ(ComGaFingerprint(), comga1);
  EXPECT_EQ(DeepFdFingerprint(), deepfd1);
  EXPECT_EQ(AsGaeFingerprint(), as_gae1);
  EXPECT_EQ(DominantCcFingerprint(), dominant_cc1);
}

// The group goldens below only pin the truncation branch if it runs: each
// detector must find a group larger than kGroupCap when left uncapped.
TEST(TrainingDeterminismTest, GroupGoldensExerciseTheCap) {
  const size_t uncapped = 1000;
  EXPECT_GT(LargestGroup(DeepFdGroups(uncapped)), size_t{kGroupCap});
  EXPECT_GT(LargestGroup(AsGaeGroups(uncapped)), size_t{kGroupCap});
  EXPECT_GT(LargestGroup(DominantCcGroups(uncapped)), size_t{kGroupCap});
}

// Golden values captured from the pre-arena implementation on the
// reference container, identical at GRGAD_THREADS=1 and 4. That
// implementation is the seed behavior the fused paths replaced — fresh
// heap matrices every epoch, unfused bias+ReLU, serial optimizer loops,
// gradient buffers freed by ZeroGrad — so these literals are its bytes and
// stand in for a side-by-side comparison with it. They pin the exact
// training bytes: any numerics change — reordered accumulation, different
// fusion, altered sampling — trips these. Two sets:
//  - Without FMA (e.g. the CI build, GRGAD_NATIVE_ARCH=OFF): every double
//    op rounds individually, so results are bitwise stable across
//    compilers and vector widths — these literals hold on any x86-64.
//  - AVX-512 (-march=native -mprefer-vector-width=512, the default local
//    build): FMA contraction changes the bytes; these literals assume the
//    reference container's GCC. On other FMA ISAs (plain AVX2) the exact
//    literal check is skipped; the cross-thread test above and the fused
//    node tests in tests/autograd_test.cc still cover every build.
// kTpgcl alone was captured later, from the factorized, fused MINE critic
// (src/gcl/mine.cc), which sums the same pair terms in another order.
// The #if tells the two sets apart by ISA macros alone, so it assumes
// unsanitized GCC -O3 codegen: sanitizer instrumentation moves the FMA
// bytes, which is why -DGRGAD_SANITIZE=ON builds without -march=native
// and lands on the portable set.
#if defined(__AVX512F__) || !defined(__FMA__)
TEST(TrainingDeterminismTest, MatchesPreArenaGoldenBytes) {
#if defined(__AVX512F__)
  constexpr uint64_t kGae = 11324091491406326405ULL;
  constexpr uint64_t kTpgcl = 6178091633810077842ULL;
  constexpr uint64_t kDeepAe = 12170585791305109379ULL;
#else
  constexpr uint64_t kGae = 10501552124811263427ULL;
  constexpr uint64_t kTpgcl = 15870786562902668206ULL;
  constexpr uint64_t kDeepAe = 10359397975250250476ULL;
#endif
  DegreeGuard guard;
  for (int degree : {1, 4}) {
    internal::SetParallelismDegreeForTest(degree);
    EXPECT_EQ(GaeFingerprint(), kGae) << degree;
    EXPECT_EQ(TpgclFingerprint(), kTpgcl) << degree;
    EXPECT_EQ(DeepAeFingerprint(), kDeepAe) << degree;
  }
}

// The ComGA, DeepFD, AS-GAE and DOMINANT+cc bytes, captured before their
// training loops moved onto the shared TrainSession, in the same two
// literal sets as above.
TEST(TrainingDeterminismTest, BaselinesMatchGoldenBytes) {
#if defined(__AVX512F__)
  constexpr uint64_t kComGa = 8715852745295724503ULL;
  constexpr uint64_t kDeepFd = 4826388692564821412ULL;
  constexpr uint64_t kAsGae = 5868282143286959580ULL;
  constexpr uint64_t kDominantCc = 1830423964397343012ULL;
#else
  constexpr uint64_t kComGa = 6387632262441461290ULL;
  constexpr uint64_t kDeepFd = 2507492391884355461ULL;
  constexpr uint64_t kAsGae = 13791503526759913030ULL;
  constexpr uint64_t kDominantCc = 5187117458281720494ULL;
#endif
  DegreeGuard guard;
  for (int degree : {1, 4}) {
    internal::SetParallelismDegreeForTest(degree);
    EXPECT_EQ(ComGaFingerprint(), kComGa) << degree;
    EXPECT_EQ(DeepFdFingerprint(), kDeepFd) << degree;
    EXPECT_EQ(AsGaeFingerprint(), kAsGae) << degree;
    EXPECT_EQ(DominantCcFingerprint(), kDominantCc) << degree;
  }
}
#endif  // __AVX512F__ || !__FMA__

TEST(TrainingDeterminismTest, AddScalarForwardAndGradient) {
  Var a(testing::FromRows({{1.0, -2.0}, {0.5, 3.0}}), /*requires_grad=*/true);
  Var out = reference::AddScalar(a, 2.5);
  EXPECT_DOUBLE_EQ(out.value()(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(out.value()(0, 1), 0.5);
  Var loss = reference::SumAll(out);
  loss.Backward();
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 2; ++j) EXPECT_DOUBLE_EQ(a.grad()(i, j), 1.0);
  }
}

}  // namespace
}  // namespace grgad
