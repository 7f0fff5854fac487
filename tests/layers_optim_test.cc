// Linear/GCN/MLP layers and the Adam optimizer: shapes, parameter
// registration, and actual optimization behaviour (losses must go down).
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "src/nn/layers.h"
#include "src/nn/optim.h"
#include "src/util/rng.h"
#include "tests/kernel_test_util.h"

namespace grgad {
namespace {

TEST(LayersTest, GlorotUniformBounds) {
  Rng rng(1);
  Matrix w = GlorotUniform(30, 20, &rng);
  const double limit = std::sqrt(6.0 / 50.0);
  double max_abs = 0.0;
  for (size_t i = 0; i < w.size(); ++i) {
    max_abs = std::max(max_abs, std::fabs(w.data()[i]));
  }
  EXPECT_LE(max_abs, limit);
  EXPECT_GT(max_abs, 0.0);
  // Not all identical.
  EXPECT_GT(w.FrobeniusNorm(), 0.1);
}

TEST(LayersTest, LinearForwardShapeAndBias) {
  Rng rng(2);
  Linear layer(4, 3, &rng);
  EXPECT_EQ(layer.in_dim(), 4u);
  EXPECT_EQ(layer.out_dim(), 3u);
  EXPECT_EQ(layer.Params().size(), 2u);  // W and b.
  Var x(Matrix(5, 4, 1.0));
  Var y = layer.Forward(x);
  EXPECT_EQ(y.rows(), 5u);
  EXPECT_EQ(y.cols(), 3u);
  Linear no_bias(4, 3, &rng, /*use_bias=*/false);
  EXPECT_EQ(no_bias.Params().size(), 1u);
}

TEST(LayersTest, GcnLayerPropagates) {
  Rng rng(3);
  GcnLayer layer(2, 2, &rng, /*use_bias=*/false);
  // Operator that swaps two nodes.
  auto op = std::make_shared<const SparseMatrix>(
      SparseMatrix::FromTriplets(2, 2, {{0, 1, 1.0}, {1, 0, 1.0}}));
  Matrix x = testing::FromRows({{1.0, 0.0}, {0.0, 1.0}});
  Var out = layer.Forward(op, Var(x));
  // out = swap(X) * W: row 0 of out must equal row 1 of X*W.
  Matrix xw = testing::Product(x, layer.Params()[0].value());
  EXPECT_NEAR(out.value()(0, 0), xw(1, 0), 1e-12);
  EXPECT_NEAR(out.value()(1, 1), xw(0, 1), 1e-12);
}

TEST(LayersTest, MlpShapesAndParams) {
  Rng rng(4);
  Mlp mlp({5, 8, 3}, &rng);
  EXPECT_EQ(mlp.num_layers(), 2u);
  EXPECT_EQ(mlp.Params().size(), 4u);
  Var out = mlp.Forward(Var(Matrix(7, 5, 0.5)));
  EXPECT_EQ(out.rows(), 7u);
  EXPECT_EQ(out.cols(), 3u);
}

TEST(OptimTest, AdamMinimizesQuadratic) {
  // min ||x - t||^2 from x = 0.
  Matrix target = testing::FromRows({{1.0, -2.0, 3.0}});
  Var x(Matrix(1, 3, 0.0), /*requires_grad=*/true);
  AdamOptions options;
  options.lr = 0.1;
  Adam adam({x}, options);
  double first_loss = 0.0, last_loss = 0.0;
  for (int i = 0; i < 200; ++i) {
    adam.ZeroGrad();
    Var loss = MseLoss(x, target);
    loss.Backward();
    adam.Step();
    if (i == 0) first_loss = loss.item();
    last_loss = loss.item();
  }
  EXPECT_LT(last_loss, first_loss * 1e-3);
  EXPECT_NEAR(x.value()(0, 0), 1.0, 0.05);
  EXPECT_NEAR(x.value()(0, 1), -2.0, 0.05);
  EXPECT_EQ(adam.step_count(), 200);
}

TEST(OptimTest, AdamSkipsParamsWithoutGrad) {
  Var used(Matrix(1, 1, 0.0), true);
  Var unused(Matrix(1, 1, 5.0), true);
  Adam adam({used, unused}, {});
  const Matrix origin(1, 1);
  Var loss = MseLoss(used, origin);
  loss.Backward();
  adam.Step();
  EXPECT_DOUBLE_EQ(unused.value()(0, 0), 5.0);
}

TEST(OptimTest, GradientClippingBoundsUpdate) {
  Var x(Matrix(1, 1, 0.0), true);
  AdamOptions options;
  options.lr = 1.0;
  options.clip_grad_norm = 1e-3;
  Adam adam({x}, options);
  adam.ZeroGrad();
  Var loss = Scale(x, 1e6);  // Huge gradient.
  loss.Backward();
  adam.Step();
  // Adam normalizes by sqrt(v), so the step is ~lr regardless, but the
  // clipped gradient must not produce NaN/inf.
  EXPECT_TRUE(std::isfinite(x.value()(0, 0)));
}

TEST(OptimTest, WeightDecayShrinksParams) {
  Var x(Matrix(1, 1, 10.0), true);
  AdamOptions options;
  options.lr = 0.1;
  options.weight_decay = 0.5;
  Adam adam({x}, options);
  const Matrix origin(1, 1);
  for (int i = 0; i < 50; ++i) {
    adam.ZeroGrad();
    // Zero data loss: only decay acts — but Step() skips empty grads, so
    // provide a tiny gradient.
    Var loss = Scale(MseLoss(x, origin), 1e-9);
    loss.Backward();
    adam.Step();
  }
  EXPECT_LT(std::fabs(x.value()(0, 0)), 10.0);
}

TEST(OptimTest, TrainTinyRegressionWithMlp) {
  // y = 2 a - b, learnable by a linear MLP.
  Rng rng(6);
  Matrix x_data = Matrix::Gaussian(64, 2, &rng);
  Matrix y_data(64, 1);
  for (int i = 0; i < 64; ++i) {
    y_data(i, 0) = 2.0 * x_data(i, 0) - x_data(i, 1);
  }
  Mlp mlp({2, 1}, &rng);
  AdamOptions options;
  options.lr = 0.05;
  Adam adam(mlp.Params(), options);
  double last_loss = 1e9;
  for (int epoch = 0; epoch < 300; ++epoch) {
    adam.ZeroGrad();
    Var loss = MseLoss(mlp.Forward(Var(x_data)), y_data);
    loss.Backward();
    adam.Step();
    last_loss = loss.item();
  }
  EXPECT_LT(last_loss, 1e-3);
}

}  // namespace
}  // namespace grgad
