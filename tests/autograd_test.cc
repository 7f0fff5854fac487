// Gradient correctness of every autograd op, checked against central finite
// differences, plus tape-mechanics tests (accumulation, reuse, topology).
#include "src/nn/autograd.h"

#include <cmath>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/nn/layers.h"
#include "src/util/rng.h"
#include "tests/kernel_test_util.h"
#include "tests/reference/reference_autograd.h"

namespace grgad {
namespace {

// Generic ops the product no longer calls; their oracles live in
// tests/reference/reference_autograd.h.
using reference::AddRowBroadcast;
using reference::ConcatCols;
using reference::GatherRows;
using reference::MaskedLogSumExp;
using reference::MeanAll;
using reference::SumAll;

/// Central-difference gradient of scalar_fn w.r.t. entry (i, j) of `at`.
double NumericalGrad(const std::function<double(const Matrix&)>& scalar_fn,
                     Matrix at, size_t i, size_t j, double h = 1e-6) {
  at(i, j) += h;
  const double up = scalar_fn(at);
  at(i, j) -= 2 * h;
  const double down = scalar_fn(at);
  return (up - down) / (2 * h);
}

/// Checks autograd gradient of `builder` (maps leaf Var -> scalar Var)
/// against finite differences at every coordinate of `x0`.
void CheckGradient(const std::function<Var(const Var&)>& builder,
                   const Matrix& x0, double tol = 1e-4) {
  Var leaf(x0, /*requires_grad=*/true);
  Var loss = builder(leaf);
  ASSERT_EQ(loss.rows(), 1u);
  ASSERT_EQ(loss.cols(), 1u);
  loss.Backward();
  const Matrix& analytic = leaf.grad();
  ASSERT_FALSE(analytic.empty());
  auto scalar_fn = [&builder](const Matrix& m) {
    Var v(m, /*requires_grad=*/false);
    return builder(v).item();
  };
  for (size_t i = 0; i < x0.rows(); ++i) {
    for (size_t j = 0; j < x0.cols(); ++j) {
      const double numeric = NumericalGrad(scalar_fn, x0, i, j);
      EXPECT_NEAR(analytic(i, j), numeric, tol)
          << "at (" << i << "," << j << ")";
    }
  }
}

/// sum_ij x_ij^2, the nonlinear loss of most checks below, built from live
/// ops: every row's inner product with itself, summed.
Var SquaredNorm(const Var& x) {
  auto diagonal = std::make_shared<std::vector<std::pair<int, int>>>();
  for (int i = 0; i < static_cast<int>(x.rows()); ++i) {
    diagonal->emplace_back(i, i);
  }
  return SumAll(PairInnerProduct(x, std::move(diagonal)));
}

Matrix RandomMatrix(size_t r, size_t c, uint64_t seed, double scale = 1.0) {
  Rng rng(seed);
  return Matrix::Gaussian(r, c, &rng, 0.0, scale);
}

TEST(AutogradBasics, LeafProperties) {
  Matrix m = testing::FromRows({{1.0, 2.0}, {3.0, 4.0}});
  Var v(m, /*requires_grad=*/true);
  EXPECT_TRUE(v.defined());
  EXPECT_TRUE(v.requires_grad());
  EXPECT_EQ(v.rows(), 2u);
  EXPECT_EQ(v.cols(), 2u);
  EXPECT_TRUE(v.grad().empty());
  Var c2(m);
  EXPECT_FALSE(c2.requires_grad());
}

TEST(AutogradBasics, ItemRequiresScalar) {
  Var v(Matrix(1, 1, 3.5));
  EXPECT_DOUBLE_EQ(v.item(), 3.5);
}

TEST(AutogradBasics, BackwardSeedsWithOne) {
  Var v(Matrix(1, 1, 2.0), true);
  Var loss = Scale(v, 3.0);
  loss.Backward();
  EXPECT_DOUBLE_EQ(v.grad()(0, 0), 3.0);
}

TEST(AutogradBasics, GradAccumulatesAcrossBackwardCalls) {
  Var v(Matrix(1, 1, 2.0), true);
  for (int rep = 0; rep < 3; ++rep) {
    Var loss = Scale(v, 1.0);
    loss.Backward();
  }
  EXPECT_DOUBLE_EQ(v.grad()(0, 0), 3.0);
  v.ZeroGrad();
  EXPECT_TRUE(v.grad().empty());
}

TEST(AutogradBasics, DiamondGraphAccumulates) {
  // loss = sum(x) + sum(x) should give gradient 2 everywhere.
  Var x(Matrix(2, 2, 1.0), true);
  Var loss = Add(SumAll(x), SumAll(x));
  loss.Backward();
  for (size_t i = 0; i < 2; ++i) {
    for (size_t j = 0; j < 2; ++j) EXPECT_DOUBLE_EQ(x.grad()(i, j), 2.0);
  }
}

TEST(AutogradBasics, ConstantLeafGetsNoGrad) {
  Var c(Matrix(2, 2, 1.0), false);
  Var x(Matrix(2, 2, 1.0), true);
  Var loss = SumAll(Add(c, x));
  loss.Backward();
  EXPECT_TRUE(c.grad().empty());
  EXPECT_FALSE(x.grad().empty());
}

TEST(AutogradGradients, MatMulLeft) {
  Matrix b = RandomMatrix(3, 2, 7);
  CheckGradient(
      [&b](const Var& x) {
        return SquaredNorm(MatMul(x, Var(b)));
      },
      RandomMatrix(4, 3, 1));
}

TEST(AutogradGradients, MatMulRight) {
  Matrix a = RandomMatrix(4, 3, 8);
  CheckGradient(
      [&a](const Var& x) {
        return SquaredNorm(MatMul(Var(a), x));
      },
      RandomMatrix(3, 2, 2));
}

TEST(AutogradGradients, Spmm) {
  auto s = std::make_shared<const SparseMatrix>(SparseMatrix::FromTriplets(
      3, 3, {{0, 1, 2.0}, {1, 0, -1.0}, {2, 2, 0.5}, {0, 0, 1.0}}));
  CheckGradient(
      [&s](const Var& x) { return SquaredNorm(Spmm(s, x)); },
      RandomMatrix(3, 2, 3));
}

TEST(AutogradGradients, Add) {
  Matrix other = RandomMatrix(3, 3, 9);
  CheckGradient(
      [&other](const Var& x) { return SquaredNorm(Add(x, Var(other))); },
      RandomMatrix(3, 3, 4));
  CheckGradient(
      [&other](const Var& x) { return SquaredNorm(Add(Var(other), x)); },
      RandomMatrix(3, 3, 4));
}

TEST(AutogradGradients, ScaleAndBias) {
  Matrix bias = RandomMatrix(1, 3, 10);
  CheckGradient(
      [&bias](const Var& x) {
        return SquaredNorm(AddRowBroadcast(Scale(x, -1.7), Var(bias)));
      },
      RandomMatrix(4, 3, 5));
}

TEST(AutogradGradients, BiasItself) {
  Matrix a = RandomMatrix(4, 3, 11);
  CheckGradient(
      [&a](const Var& b) {
        return SquaredNorm(AddRowBroadcast(Var(a), b));
      },
      RandomMatrix(1, 3, 6));
}

TEST(AutogradGradients, Relu) {
  CheckGradient([](const Var& x) { return SquaredNorm(Relu(x)); },
                RandomMatrix(3, 4, 12));
}

TEST(AutogradGradients, Sigmoid) {
  CheckGradient([](const Var& x) { return SquaredNorm(Sigmoid(x)); },
                RandomMatrix(3, 3, 13));
}

TEST(AutogradGradients, MeanAllAndSumAll) {
  CheckGradient([](const Var& x) { return MeanAll(Sigmoid(x)); },
                RandomMatrix(3, 5, 18));
}

TEST(AutogradGradients, MseLoss) {
  Matrix target = RandomMatrix(3, 3, 19);
  CheckGradient(
      [&target](const Var& x) { return MseLoss(Sigmoid(x), target); },
      RandomMatrix(3, 3, 20));
}

TEST(AutogradGradients, GatherRowsWithDuplicates) {
  CheckGradient(
      [](const Var& x) {
        return SquaredNorm(GatherRows(x, {0, 2, 2, 1}));
      },
      RandomMatrix(3, 3, 24));
}

TEST(AutogradGradients, ConcatColsBothSides) {
  Matrix other = RandomMatrix(3, 2, 28);
  CheckGradient(
      [&other](const Var& x) {
        return SquaredNorm(ConcatCols(x, Var(other)));
      },
      RandomMatrix(3, 2, 29));
  CheckGradient(
      [&other](const Var& x) {
        return SquaredNorm(ConcatCols(Var(other), x));
      },
      RandomMatrix(3, 4, 30));
}

TEST(AutogradGradients, PairInnerProduct) {
  const auto pairs = std::make_shared<const std::vector<std::pair<int, int>>>(
      std::vector<std::pair<int, int>>{{0, 1}, {1, 2}, {0, 3}, {2, 2}});
  CheckGradient(
      [&pairs](const Var& z) {
        return SquaredNorm(Sigmoid(PairInnerProduct(z, pairs)));
      },
      RandomMatrix(4, 3, 32));
}

TEST(AutogradGradients, MaskedLogSumExp) {
  std::vector<uint8_t> mask = {1, 0, 1, 1, 0, 1, 1, 0, 1};
  CheckGradient(
      [&mask](const Var& x) { return MaskedLogSumExp(x, mask); },
      RandomMatrix(3, 3, 34));
}

TEST(AutogradGradients, MaskedLogSumExpIsStableForLargeValues) {
  Matrix big(1, 3);
  big(0, 0) = 500.0;
  big(0, 1) = 501.0;
  big(0, 2) = 499.0;
  Var v(big, true);
  Var out = MaskedLogSumExp(v, {1, 1, 1});
  EXPECT_TRUE(std::isfinite(out.item()));
  EXPECT_NEAR(out.item(), 501.0 + std::log(std::exp(-1.0) + 1 +
                                            std::exp(-2.0)),
              1e-9);
  out.Backward();
  double grad_sum = 0.0;
  for (size_t j = 0; j < 3; ++j) grad_sum += v.grad()(0, j);
  EXPECT_NEAR(grad_sum, 1.0, 1e-9);  // Softmax weights sum to 1.
}

TEST(AutogradGradients, ComposedGcnLikeNetwork) {
  // A miniature GCN+readout+estimator stack, end to end.
  auto s = std::make_shared<const SparseMatrix>(SparseMatrix::FromTriplets(
      4, 4, {{0, 1, 0.5}, {1, 0, 0.5}, {2, 3, 0.7}, {3, 2, 0.7},
             {0, 0, 0.5}, {1, 1, 0.5}, {2, 2, 0.3}, {3, 3, 0.3}}));
  // Mean readout of the whole graph, as TPGCL pools each group.
  auto pool = std::make_shared<const SparseMatrix>(SparseMatrix::FromTriplets(
      1, 4, {{0, 0, 0.25}, {0, 1, 0.25}, {0, 2, 0.25}, {0, 3, 0.25}}));
  Matrix x = RandomMatrix(4, 3, 35);
  CheckGradient(
      [&](const Var& w) {
        Var h = Relu(Spmm(s, MatMul(Var(x), w)));
        Var pooled = Spmm(pool, h);
        return SquaredNorm(pooled);
      },
      RandomMatrix(3, 2, 36), 2e-4);
}

// ---- the fused affine node, act(X W + b) (src/nn/layers.cc) ----

TEST(AffineGradients, MatchFiniteDifferencesForEveryInput) {
  const Matrix x0 = RandomMatrix(5, 4, 40);
  const Matrix w0 = RandomMatrix(4, 3, 41);
  const Matrix b0 = RandomMatrix(1, 3, 42);
  for (Activation act : {Activation::kIdentity, Activation::kRelu}) {
    SCOPED_TRACE(act == Activation::kRelu ? "relu" : "identity");
    CheckGradient(
        [&](const Var& x) {
          return SquaredNorm(Affine(x, Var(w0), Var(b0), act));
        },
        x0);
    CheckGradient(
        [&](const Var& w) {
          return SquaredNorm(Affine(Var(x0), w, Var(b0), act));
        },
        w0);
    CheckGradient(
        [&](const Var& b) {
          return SquaredNorm(Affine(Var(x0), Var(w0), b, act));
        },
        b0);
    CheckGradient(  // No bias.
        [&](const Var& w) {
          return SquaredNorm(Affine(Var(x0), w, Var(), act));
        },
        w0);
  }
}

/// The tapes the fused node replaced: MatMul -> AddRowBroadcast for a
/// Linear layer, MatMul -> BiasReluFused for an Mlp interior layer, and
/// MatMul (-> Relu) without a bias.
Var UnfusedAffine(const Var& x, const Var& w, const Var& b, Activation act) {
  Var xw = MatMul(x, w);
  if (act == Activation::kRelu) {
    return b.defined() ? reference::BiasReluFused(xw, b) : Relu(xw);
  }
  return b.defined() ? AddRowBroadcast(xw, b) : xw;
}

struct AffineRun {
  Matrix y1, y2, gx1, gx2, gw, gb;
};

/// Two nodes on one W and b (the pos/neg views of TPGCL share their
/// encoder), each against its own target, backward through the sum of the
/// two losses. With `shared` false only the first node is built.
AffineRun RunAffine(bool fused, bool shared, bool bias, Activation act,
                    size_t rows, size_t in, size_t out) {
  const Matrix x1_init = RandomMatrix(rows, in, 50);
  const Matrix x2_init = RandomMatrix(rows, in, 51);
  const Matrix w_init = RandomMatrix(in, out, 52);
  const Matrix b_init = RandomMatrix(1, out, 53);
  const Matrix t1 = RandomMatrix(rows, out, 54);
  const Matrix t2 = RandomMatrix(rows, out, 55);
  Var x1(x1_init, true), x2(x2_init, true), w(w_init, true);
  Var b = bias ? Var(b_init, true) : Var();
  auto node = [&](const Var& x) {
    return fused ? Affine(x, w, b, act) : UnfusedAffine(x, w, b, act);
  };
  Var y1 = node(x1);
  Var loss = MseLoss(y1, t1);
  Var y2;
  if (shared) {
    y2 = node(x2);
    loss = Add(loss, MseLoss(y2, t2));
  }
  loss.Backward();
  AffineRun run{y1.value(), shared ? y2.value() : Matrix(), x1.grad(),
                x2.grad(), w.grad(), bias ? b.grad() : Matrix()};
  return run;
}

void ExpectRunsBitwiseEqual(const AffineRun& a, const AffineRun& b) {
  EXPECT_TRUE(testing::BitwiseEqual(a.y1, b.y1)) << "y1";
  EXPECT_TRUE(testing::BitwiseEqual(a.y2, b.y2)) << "y2";
  EXPECT_TRUE(testing::BitwiseEqual(a.gx1, b.gx1)) << "dX1";
  EXPECT_TRUE(testing::BitwiseEqual(a.gx2, b.gx2)) << "dX2";
  EXPECT_TRUE(testing::BitwiseEqual(a.gw, b.gw)) << "dW";
  EXPECT_TRUE(testing::BitwiseEqual(a.gb, b.gb)) << "db";
}

// 7 x 5 stays serial and is all column tail; 70 x 21 has full register
// tiles and a column tail; 700 x 64 crosses the parallel thresholds of the
// column sums and the ReLU mask, and its row chunks end in row tails.
TEST(AffineGradients, BitwiseEqualToTheUnfusedTape) {
  for (const auto& [rows, in, out] :
       {std::tuple<size_t, size_t, size_t>{7, 3, 5}, {70, 9, 21},
        {700, 33, 64}}) {
    for (bool bias : {true, false}) {
      for (Activation act : {Activation::kIdentity, Activation::kRelu}) {
        for (int degree : {1, 4, 7}) {
          testing::ScopedDegree scoped(degree);
          SCOPED_TRACE(::testing::Message()
                       << rows << "x" << in << "x" << out << " bias=" << bias
                       << " relu=" << (act == Activation::kRelu)
                       << " degree=" << degree);
          const AffineRun fused =
              RunAffine(true, /*shared=*/false, bias, act, rows, in, out);
          ASSERT_FALSE(fused.gw.empty());
          ExpectRunsBitwiseEqual(
              fused, RunAffine(false, false, bias, act, rows, in, out));
        }
      }
    }
  }
}

TEST(AffineGradients, SharedWeightsAccumulateBitwiseLikeTheUnfusedTape) {
  for (Activation act : {Activation::kIdentity, Activation::kRelu}) {
    for (int degree : {1, 4}) {
      testing::ScopedDegree scoped(degree);
      SCOPED_TRACE(::testing::Message() << "relu=" << (act == Activation::kRelu)
                                        << " degree=" << degree);
      const AffineRun fused = RunAffine(true, /*shared=*/true, true, act, 700,
                                        33, 64);
      ASSERT_FALSE(fused.gx2.empty());
      ExpectRunsBitwiseEqual(fused,
                             RunAffine(false, true, true, act, 700, 33, 64));
    }
  }
}

// Property sweep: SquaredNorm gradient == 2x for random shapes (each row's
// self-pair feeds both halves of PairInnerProduct's backward).
class SquaredNormParamTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(SquaredNormParamTest, GradientIsTwiceInput) {
  const auto [r, c] = GetParam();
  Matrix m = RandomMatrix(r, c, 100 + r * 13 + c);
  Var v(m, true);
  SquaredNorm(v).Backward();
  for (int i = 0; i < r; ++i) {
    for (int j = 0; j < c; ++j) {
      EXPECT_NEAR(v.grad()(i, j), 2.0 * m(i, j), 1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SquaredNormParamTest,
    ::testing::Values(std::make_pair(1, 1), std::make_pair(1, 7),
                      std::make_pair(5, 1), std::make_pair(3, 4),
                      std::make_pair(8, 8)));

}  // namespace
}  // namespace grgad
