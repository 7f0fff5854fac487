// Dense Matrix: construction, arithmetic, reductions, and the three matmul
// kernels (including agreement between the specialized transpose variants
// and explicit transposition, and determinism of the blocked parallel
// kernels against the serial reference implementations).
#include "src/tensor/matrix.h"

#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "tests/reference/reference_kernels.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/kernel_test_util.h"

namespace grgad {
namespace {

using ::grgad::testing::BitwiseEqual;
using ::grgad::testing::FromRows;
using ::grgad::testing::Product;
using ::grgad::testing::ScopedDegree;

TEST(MatrixTest, ConstructionAndFill) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m.Fill(0.0);
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), 0.0);
  EXPECT_TRUE(Matrix().empty());
}

TEST(MatrixTest, ElementwiseArithmetic) {
  Matrix a = FromRows({{1, 2}, {3, 4}});
  Matrix b = FromRows({{10, 20}, {30, 40}});
  Matrix sum(2, 2);
  AddInto(a, b, &sum);
  EXPECT_DOUBLE_EQ(sum(1, 1), 44.0);
  Matrix diff = b;
  diff.SubInPlace(a);
  EXPECT_DOUBLE_EQ(diff(0, 0), 9.0);
  Matrix scaled(2, 2);
  ScaledInto(a, 2.0, &scaled);
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
  a *= 3.0;
  EXPECT_DOUBLE_EQ(a(0, 1), 6.0);
}

TEST(MatrixTest, TransposeRoundTrip) {
  Rng rng(1);
  Matrix m = Matrix::Gaussian(4, 7, &rng);
  EXPECT_TRUE(m.Transpose().Transpose().ApproxEquals(m));
  EXPECT_DOUBLE_EQ(m.Transpose()(3, 2), m(2, 3));
}

TEST(MatrixTest, Reductions) {
  Matrix m = FromRows({{1, -2}, {3, 4}});
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), std::sqrt(1 + 4 + 9 + 16.0));
  EXPECT_EQ(m.ColMeans(), (std::vector<double>{2.0, 1.0}));
}

TEST(MatrixTest, GatherRowsAndSetRow) {
  Matrix m = FromRows({{1, 2}, {3, 4}, {5, 6}});
  Matrix g = m.GatherRows({2, 0, 2});
  EXPECT_EQ(g.rows(), 3u);
  EXPECT_DOUBLE_EQ(g(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(g(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(g(2, 0), 5.0);
  m.SetRow(1, {7.0, 8.0});
  EXPECT_DOUBLE_EQ(m(1, 0), 7.0);
}

TEST(MatrixTest, MapAndApproxEquals) {
  Matrix m = FromRows({{1, 4}, {9, 16}});
  Matrix r = m.MapFn([](double v) { return std::sqrt(v); });
  EXPECT_TRUE(r.ApproxEquals(FromRows({{1, 2}, {3, 4}}), 1e-12));
  EXPECT_FALSE(r.ApproxEquals(m));
  EXPECT_FALSE(r.ApproxEquals(Matrix(2, 3)));
}

TEST(MatrixTest, MatMulSmallKnownResult) {
  Matrix a = FromRows({{1, 2}, {3, 4}});
  Matrix b = FromRows({{5, 6}, {7, 8}});
  Matrix c(2, 2, /*fill=*/5.0);  // Stale contents must not leak through.
  MatMulInto(a, b, &c);
  EXPECT_TRUE(c.ApproxEquals(FromRows({{19, 22}, {43, 50}})));
}

TEST(MatrixTest, MatMulIdentity) {
  Rng rng(2);
  Matrix m = Matrix::Gaussian(5, 5, &rng);
  Matrix eye(5, 5);
  for (size_t i = 0; i < 5; ++i) eye(i, i) = 1.0;
  EXPECT_TRUE(Product(m, eye).ApproxEquals(m, 1e-12));
  EXPECT_TRUE(Product(eye, m).ApproxEquals(m, 1e-12));
}

TEST(MatrixTest, TransposeKernelsAgree) {
  Rng rng(3);
  Matrix a = Matrix::Gaussian(6, 4, &rng);
  Matrix b = Matrix::Gaussian(5, 4, &rng);
  // MatMulTransposeBInto is MatMulInto over one materialized transpose and
  // MatMulTransposeAInto runs its accumulation chains in place, so
  // agreement with the explicit form is bitwise; stale outputs are
  // overwritten.
  Matrix tb(6, 5, 5.0);
  MatMulTransposeBInto(a, b, &tb);
  EXPECT_TRUE(BitwiseEqual(tb, Product(a, b.Transpose())));
  Matrix c = Matrix::Gaussian(6, 3, &rng);
  Matrix ta(4, 3, 5.0);
  MatMulTransposeAInto(a, c, &ta);
  EXPECT_TRUE(BitwiseEqual(ta, Product(a.Transpose(), c)));
}

TEST(MatrixTest, MatMulLargeParallelMatchesSerialSum) {
  // Product with a ones-vector equals row sums — checks the parallel path.
  Rng rng(4);
  Matrix a = Matrix::Gaussian(300, 50, &rng);
  Matrix ones(50, 1, 1.0);
  Matrix out = Product(a, ones);
  for (size_t i = 0; i < a.rows(); ++i) {
    double sum = 0.0;
    for (size_t j = 0; j < a.cols(); ++j) sum += a(i, j);
    EXPECT_NEAR(out(i, 0), sum, 1e-9);
  }
}

TEST(MatrixTest, ToStringTruncates) {
  Matrix m(20, 20, 1.0);
  const std::string s = m.ToString(3, 3);
  EXPECT_NE(s.find("Matrix(20x20)"), std::string::npos);
  EXPECT_NE(s.find("..."), std::string::npos);
}

// Property sweep: (A B)^T == B^T A^T across shapes.
class MatMulTransposePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(MatMulTransposePropertyTest, TransposeOfProduct) {
  const auto [m, k, n] = GetParam();
  Rng rng(17 + m + k * 3 + n * 7);
  Matrix a = Matrix::Gaussian(m, k, &rng);
  Matrix b = Matrix::Gaussian(k, n, &rng);
  Matrix left = Product(a, b).Transpose();
  Matrix right = Product(b.Transpose(), a.Transpose());
  EXPECT_TRUE(left.ApproxEquals(right, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulTransposePropertyTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(7, 1, 5), std::make_tuple(16, 8, 2),
                      std::make_tuple(65, 33, 17)));

// ---- blocked-kernel determinism vs the serial reference kernels ----

// Shapes chosen to exercise full register tiles, row tails, and column tails.
class KernelReferenceTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(KernelReferenceTest, MatchesSerialReferenceAtDegreeOne) {
  ScopedDegree degree(1);
  const auto [m, k, n] = GetParam();
  Rng rng(91 + m + 3 * k + 7 * n);
  Matrix a = Matrix::Gaussian(m, k, &rng);
  Matrix b = Matrix::Gaussian(k, n, &rng);
  // The blocked MatMul accumulates each output element over k in the same
  // ascending order as the reference, so agreement is exact, not just 1e-12.
  EXPECT_TRUE(BitwiseEqual(Product(a, b), reference::MatMul(a, b)));
  EXPECT_TRUE(BitwiseEqual(a.Transpose(), reference::Transpose(a)));
  Matrix bt = Matrix::Gaussian(n, k, &rng);
  Matrix tb(m, n);
  MatMulTransposeBInto(a, bt, &tb);
  EXPECT_TRUE(tb.ApproxEquals(reference::MatMulTransposeB(a, bt), 1e-12));
  Matrix at = Matrix::Gaussian(k, m, &rng);
  Matrix ta(m, n);
  MatMulTransposeAInto(at, b, &ta);
  EXPECT_TRUE(ta.ApproxEquals(reference::MatMulTransposeA(at, b), 1e-12));
}

TEST_P(KernelReferenceTest, BitwiseIdenticalAcrossThreadCounts) {
  const auto [m, k, n] = GetParam();
  Rng rng(173 + m + 3 * k + 7 * n);
  Matrix a = Matrix::Gaussian(m, k, &rng);
  Matrix b = Matrix::Gaussian(k, n, &rng);
  Matrix serial;
  {
    ScopedDegree degree(1);
    serial = Product(a, b);
  }
  for (int threads : {2, 4, 8}) {
    ScopedDegree degree(threads);
    EXPECT_TRUE(BitwiseEqual(Product(a, b), serial)) << threads << " threads";
    // Repeated runs at a fixed degree must also be bitwise stable.
    EXPECT_TRUE(BitwiseEqual(Product(a, b), Product(a, b)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KernelReferenceTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(4, 32, 32),
                      std::make_tuple(5, 7, 33), std::make_tuple(64, 64, 64),
                      std::make_tuple(130, 96, 70),
                      std::make_tuple(33, 128, 257)));

// MatMulTransposeAInto reads a in place and walks k in blocks of 64 rows.
// Shapes: k below, equal to, a multiple of and not a multiple of the block
// (20,582 is the simml view batch), p with a row tail (33) and without
// (64), n with a column tail (17) and without (64).
class TransposeAKernelTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(TransposeAKernelTest, BitwiseEqualToTransposeThenMatMul) {
  const auto [k, p, n] = GetParam();
  Rng rng(211 + k + 3 * p + 7 * n);
  const Matrix a = Matrix::Gaussian(k, p, &rng);
  const Matrix b = Matrix::Gaussian(k, n, &rng);
  Matrix at(p, k);
  TransposeInto(a, &at);
  const Matrix expected = Product(at, b);
  const Matrix oracle = reference::MatMulTransposeA(a, b);
  for (int degree : {1, 4, 7}) {
    ScopedDegree scoped(degree);
    Matrix out(p, n, /*fill=*/5.0);  // Stale contents must not leak in.
    MatMulTransposeAInto(a, b, &out);
    EXPECT_TRUE(BitwiseEqual(out, expected)) << degree << " threads";
    EXPECT_TRUE(out.ApproxEquals(oracle, 1e-12)) << degree << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TransposeAKernelTest,
    ::testing::Combine(::testing::Values(1, 64, 256, 1000, 20582),
                       ::testing::Values(33, 64), ::testing::Values(17, 64)));

TEST(MatrixTest, ColumnSumsAndReluMaskMatchSerialLoops) {
  Rng rng(212);
  // 700 x 64 crosses both kernels' parallel thresholds; 9 x 11 does not.
  for (const auto& [rows, cols] : {std::pair<int, int>{9, 11}, {700, 64}}) {
    const Matrix a = Matrix::Gaussian(rows, cols, &rng);
    const Matrix g = Matrix::Gaussian(rows, cols, &rng);
    Matrix sums(1, cols, 0.0);
    Matrix masked(rows, cols);
    for (int i = 0; i < rows; ++i) {
      for (int j = 0; j < cols; ++j) {
        sums(0, j) += a(i, j);
        masked(i, j) = a(i, j) <= 0.0 ? 0.0 : g(i, j);
      }
    }
    for (int degree : {1, 4, 7}) {
      ScopedDegree scoped(degree);
      Matrix out_sums(1, cols, 5.0);
      ColumnSumsInto(a, &out_sums);
      EXPECT_TRUE(BitwiseEqual(out_sums, sums)) << rows << " " << degree;
      Matrix out_masked(rows, cols, 5.0);
      ReluMaskInto(a, g, &out_masked);
      EXPECT_TRUE(BitwiseEqual(out_masked, masked)) << rows << " " << degree;
    }
  }
}

TEST(MatrixTest, MapFnMatchesReferenceMapAndGoesParallel) {
  Rng rng(7);
  // Large enough to cross the parallel-map threshold.
  Matrix m = Matrix::Gaussian(260, 260, &rng);
  ScopedDegree degree(4);
  Matrix via_fn = m.MapFn([](double v) { return v * 2.0 + 1.0; });
  Matrix via_std =
      reference::Map(m, [](double v) { return v * 2.0 + 1.0; });
  EXPECT_TRUE(BitwiseEqual(via_fn, via_std));
}

TEST(MatrixTest, MatMulInsideParallelRegionIsSafe) {
  // Kernels may be invoked from code that is itself inside a ParallelFor;
  // the nested dispatch must degrade to inline execution, not deadlock.
  ScopedDegree degree(4);
  Rng rng(8);
  Matrix a = Matrix::Gaussian(24, 16, &rng);
  Matrix b = Matrix::Gaussian(16, 12, &rng);
  Matrix expected = Product(a, b);
  std::vector<Matrix> results(8);
  ParallelFor(8, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) results[i] = Product(a, b);
  });
  for (const Matrix& r : results) EXPECT_TRUE(BitwiseEqual(r, expected));
}

TEST(MatrixIntoKernelsTest, StaleOutputsAreOverwritten) {
  Rng rng(99);
  const Matrix a = Matrix::Gaussian(37, 23, &rng);
  const Matrix b = Matrix::Gaussian(23, 19, &rng);
  const Matrix c = Matrix::Gaussian(37, 23, &rng);

  // Every destination-passing kernel fully defines its output: writing into
  // a buffer of stale values gives exactly what a zeroed buffer gets.
  auto same_into_stale = [](size_t rows, size_t cols, auto&& kernel) {
    Matrix fresh(rows, cols);
    Matrix stale(rows, cols, /*fill=*/5.0);
    kernel(&fresh);
    kernel(&stale);
    return BitwiseEqual(fresh, stale);
  };
  EXPECT_TRUE(same_into_stale(37, 19, [&](Matrix* o) { MatMulInto(a, b, o); }));
  EXPECT_TRUE(same_into_stale(
      37, 37, [&](Matrix* o) { MatMulTransposeBInto(a, c, o); }));
  EXPECT_TRUE(same_into_stale(
      23, 23, [&](Matrix* o) { MatMulTransposeAInto(a, c, o); }));
  EXPECT_TRUE(same_into_stale(23, 37, [&](Matrix* o) { TransposeInto(a, o); }));
  EXPECT_TRUE(same_into_stale(37, 23, [&](Matrix* o) { AddInto(a, c, o); }));
  EXPECT_TRUE(
      same_into_stale(37, 23, [&](Matrix* o) { ScaledInto(a, -1.75, o); }));

  Matrix tr(23, 37);
  TransposeInto(a, &tr);
  EXPECT_TRUE(BitwiseEqual(tr, a.Transpose()));

  Matrix scaled(37, 23);
  ScaledInto(a, -1.75, &scaled);
  Matrix expected = a;
  expected *= -1.75;
  EXPECT_TRUE(BitwiseEqual(scaled, expected));

  Matrix mapped(37, 23);
  a.MapToFn(&mapped, [](double v) { return v > 0.0 ? v : 0.0; });
  EXPECT_TRUE(
      BitwiseEqual(mapped, a.MapFn([](double v) { return v > 0.0 ? v : 0.0; })));
}

TEST(MatrixInPlaceKernelsTest, MatchOutOfPlaceBitwise) {
  Rng rng(100);
  const Matrix a = Matrix::Gaussian(41, 17, &rng);
  const Matrix b = Matrix::Gaussian(41, 17, &rng);
  Matrix sum(41, 17);
  AddInto(a, b, &sum);
  Matrix x = a;
  x.AddInPlace(b);
  EXPECT_TRUE(BitwiseEqual(x, sum));
  x.SubInPlace(b);
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(x.data()[i], sum.data()[i] - b.data()[i]);
  }
  x = Matrix(41, 17, 3.0);
  x.CopyFrom(a);
  EXPECT_TRUE(BitwiseEqual(x, a));
}

}  // namespace
}  // namespace grgad
