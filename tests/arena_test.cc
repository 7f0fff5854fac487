// MatrixArena unit tests: buffer reuse, exact shape keying, stats
// accounting, scope nesting, and full teardown (including under
// cancellation mid-training).
#include "src/tensor/arena.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "src/data/example_graph.h"
#include "src/gae/gae_base.h"
#include "src/gcl/tpgcl.h"
#include "src/nn/autograd.h"
#include "src/nn/optim.h"
#include "src/tensor/matrix.h"
#include "tests/kernel_test_util.h"
#include "tests/reference/reference_autograd.h"

namespace grgad {
namespace {

TEST(MatrixArenaTest, AcquireIsZeroFilledAndShaped) {
  MatrixArena arena;
  Matrix m = arena.Acquire(3, 5);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 5u);
  for (size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.0);
}

TEST(MatrixArenaTest, ReleaseThenAcquireReusesTheBuffer) {
  MatrixArena arena;
  Matrix m = arena.Acquire(4, 4);
  const double* buffer = m.data();
  m.Fill(7.0);
  arena.Release(std::move(m));
  Matrix again = arena.Acquire(4, 4);
  EXPECT_EQ(again.data(), buffer);  // Same heap buffer came back...
  for (size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again.data()[i], 0.0);  // ...zeroed again.
  }
  const MatrixArena::Stats stats = arena.stats();
  EXPECT_EQ(stats.acquired, 2u);
  EXPECT_EQ(stats.heap_allocs, 1u);
  EXPECT_EQ(stats.reused, 1u);
  EXPECT_EQ(stats.released, 1u);
}

TEST(MatrixArenaTest, ShapeKeyingIsExact) {
  MatrixArena arena;
  Matrix m = arena.Acquire(2, 6);
  arena.Release(std::move(m));
  // Same element count, different shape: must NOT be served from the free
  // list (shape keys are exact, not size-based).
  Matrix other = arena.Acquire(6, 2);
  EXPECT_EQ(arena.stats().heap_allocs, 2u);
  EXPECT_EQ(arena.stats().reused, 0u);
  arena.Release(std::move(other));
  Matrix back = arena.Acquire(2, 6);
  EXPECT_EQ(arena.stats().reused, 1u);
  EXPECT_EQ(arena.free_buffers(), 1u);  // The 6x2 is still parked.
  (void)back;
}

TEST(MatrixArenaTest, AcquireCopyMatchesSource) {
  MatrixArena arena;
  Matrix src = testing::FromRows({{1.0, 2.0}, {3.0, 4.0}});
  Matrix copy = arena.AcquireCopy(src);
  EXPECT_TRUE(copy.ApproxEquals(src, 0.0));
}

TEST(MatrixArenaTest, StatsTrackBytesAndOutstanding) {
  MatrixArena arena;
  Matrix a = arena.Acquire(8, 8);
  Matrix b = arena.Acquire(8, 8);
  EXPECT_EQ(arena.outstanding(), 2);
  EXPECT_EQ(arena.stats().bytes_served, 2u * 64u * sizeof(double));
  EXPECT_EQ(arena.stats().heap_bytes, 2u * 64u * sizeof(double));
  arena.Release(std::move(a));
  EXPECT_EQ(arena.outstanding(), 1);
  EXPECT_EQ(arena.free_buffers(), 1u);
  arena.Release(std::move(b));
  EXPECT_EQ(arena.outstanding(), 0);
  arena.ResetStats();
  EXPECT_EQ(arena.stats().acquired, 0u);
}

TEST(MatrixArenaTest, ReleaseIgnoresEmptyMatrices) {
  MatrixArena arena;
  arena.Release(Matrix());
  EXPECT_EQ(arena.stats().released, 0u);
  EXPECT_EQ(arena.free_buffers(), 0u);
}

TEST(ArenaScopeTest, InstallsAndRestoresNested) {
  EXPECT_EQ(CurrentArena(), nullptr);
  MatrixArena outer, inner;
  {
    ArenaScope outer_scope(&outer);
    EXPECT_EQ(CurrentArena(), &outer);
    {
      ArenaScope inner_scope(&inner);
      EXPECT_EQ(CurrentArena(), &inner);
      {
        ArenaScope off(nullptr);
        EXPECT_EQ(CurrentArena(), nullptr);
      }
      EXPECT_EQ(CurrentArena(), &inner);
    }
    EXPECT_EQ(CurrentArena(), &outer);
  }
  EXPECT_EQ(CurrentArena(), nullptr);
}

TEST(ArenaScopeTest, TapeTeardownReturnsEveryBuffer) {
  MatrixArena arena;
  {
    ArenaScope scope(&arena);
    Var w(testing::FromRows({{0.5, -0.25}, {1.0, 2.0}}),
          /*requires_grad=*/true);
    Var x(testing::FromRows({{1.0, 2.0}, {3.0, 4.0}}));
    Var loss = reference::MeanAll(Relu(MatMul(x, w)));
    loss.Backward();
    EXPECT_GT(arena.outstanding(), 0);
  }
  // Every node (including the leaves' values and the parameter gradient)
  // has been destroyed; all buffers must be back on the free lists (the
  // negative balance is the adopted leaf values — see outstanding()).
  EXPECT_LE(arena.outstanding(), 0);
  EXPECT_GT(arena.stats().released, 0u);
}

TEST(ArenaScopeTest, SecondEpochIsHeapAllocationFree) {
  MatrixArena arena;
  ArenaScope scope(&arena);
  Var w(testing::FromRows({{0.5, -0.25}, {1.0, 2.0}}), /*requires_grad=*/true);
  Var x(testing::FromRows({{1.0, 2.0}, {3.0, 4.0}}));
  Adam adam({w});
  auto epoch = [&] {
    adam.ZeroGrad();
    Var loss = reference::MeanAll(Relu(MatMul(x, w)));
    loss.Backward();
    adam.Step();
  };
  // Warmup: epoch 1 populates the free lists on tape teardown; epoch 2 may
  // still allocate one stray buffer (epoch 1 parked the parameter-gradient
  // buffer on its leaf node after the concurrency peak had passed).
  epoch();
  epoch();
  const uint64_t warm = arena.stats().heap_allocs;
  EXPECT_GT(warm, 0u);
  for (int i = 0; i < 5; ++i) epoch();
  EXPECT_EQ(arena.stats().heap_allocs, warm)
      << "steady-state epochs must not allocate";
  EXPECT_GT(arena.stats().reused, 0u);
}

TEST(ArenaTrainingTest, CancelledFitReturnsAllBuffers) {
  DatasetOptions data_options;
  data_options.seed = 11;
  const Dataset d = GenExampleGraph(data_options);
  MatrixArena arena;
  GaeOptions options;
  options.epochs = 50;
  options.hidden_dim = 8;
  options.embed_dim = 4;
  options.arena = &arena;
  options.cancel.RequestCancel();  // Fires at the first per-epoch poll.
  const GaeResult partial = GcnGae(options).Fit(d.graph);
  EXPECT_TRUE(partial.loss_history.empty());
  // The abandoned run's tape, parameters, and optimizer state buffers all
  // unwound through the arena: nothing may still be outstanding.
  EXPECT_LE(arena.outstanding(), 0);

  // The same (still-warm) arena serves a full fit afterwards.
  GaeOptions full = options;
  full.cancel = CancelToken();
  const GaeResult result = GcnGae(full).Fit(d.graph);
  EXPECT_EQ(result.loss_history.size(), 50u);
  EXPECT_LE(arena.outstanding(), 0);
}

TEST(ArenaTrainingTest, SecondFitIsHeapAllocationFree) {
  DatasetOptions data_options;
  data_options.seed = 11;
  const Dataset d = GenExampleGraph(data_options);
  MatrixArena arena;
  GaeOptions options;
  options.epochs = 4;
  options.hidden_dim = 8;
  options.embed_dim = 4;
  options.arena = &arena;
  const GaeResult first = GcnGae(options).Fit(d.graph);
  ASSERT_EQ(first.loss_history.size(), 4u);
  arena.ResetStats();
  const GaeResult second = GcnGae(options).Fit(d.graph);
  ASSERT_EQ(second.loss_history.size(), 4u);
  EXPECT_EQ(arena.stats().heap_allocs, 0u)
      << "a structurally identical fit on a warm arena must be served "
         "entirely from the free lists";
  EXPECT_GT(arena.stats().reused, 0u);
}


// A TPGCL fit's arena holds as many bytes and free buffers after 2 epochs
// as after N: the session's tape is the same every epoch, and no epoch
// leaves a buffer behind (an input leaf copied per epoch would park one
// more attribute matrix per view batch on the free lists each epoch). Fits
// of different lengths are compared on fresh arenas; everything but the
// epoch count is identical, down to the final encode.
TEST(ArenaTrainingTest, TpgclArenaIsConstantFromTheSecondEpoch) {
  DatasetOptions data_options;
  data_options.seed = 11;
  const Dataset d = GenExampleGraph(data_options);
  std::vector<std::vector<int>> candidates = d.anomaly_groups;
  for (int i = 0; i + 6 < d.graph.num_nodes() && candidates.size() < 16;
       i += 5) {
    candidates.push_back({i, i + 1, i + 2, i + 3, i + 4, i + 5});
  }
  auto fit = [&](int epochs) {
    MatrixArena arena;
    TpgclOptions options;
    options.epochs = epochs;
    options.hidden_dim = 16;
    options.embed_dim = 8;
    options.mine_hidden = 8;
    options.neg_per_sample = 4;
    options.arena = &arena;
    const TpgclResult result = Tpgcl(options).FitEmbed(d.graph, candidates);
    EXPECT_EQ(result.loss_history.size(), static_cast<size_t>(epochs));
    return std::make_pair(arena.stats().heap_bytes, arena.free_buffers());
  };
  const auto at2 = fit(2);
  EXPECT_GT(at2.first, 0u);
  for (int epochs : {3, 6}) {
    const auto at_n = fit(epochs);
    EXPECT_EQ(at_n.first, at2.first) << "heap_bytes after " << epochs;
    EXPECT_EQ(at_n.second, at2.second) << "free_buffers after " << epochs;
  }
}

// The GAE half: a GcnGae fit (two fused-affine GCN layers, the attribute
// decoder Mlp, the pair decoder and both losses) parks the same bytes and
// free buffers after 2, 3 and 6 epochs.
TEST(ArenaTrainingTest, GaeArenaIsConstantFromTheSecondEpoch) {
  DatasetOptions data_options;
  data_options.seed = 11;
  const Dataset d = GenExampleGraph(data_options);
  auto fit = [&](int epochs) {
    MatrixArena arena;
    GaeOptions options;
    options.epochs = epochs;
    options.hidden_dim = 16;
    options.embed_dim = 8;
    options.arena = &arena;
    const GaeResult result = GcnGae(options).Fit(d.graph);
    EXPECT_EQ(result.loss_history.size(), static_cast<size_t>(epochs));
    return std::make_pair(arena.stats().heap_bytes, arena.free_buffers());
  };
  const auto at2 = fit(2);
  EXPECT_GT(at2.first, 0u);
  for (int epochs : {3, 6}) {
    const auto at_n = fit(epochs);
    EXPECT_EQ(at_n.first, at2.first) << "heap_bytes after " << epochs;
    EXPECT_EQ(at_n.second, at2.second) << "free_buffers after " << epochs;
  }
}

}  // namespace
}  // namespace grgad
