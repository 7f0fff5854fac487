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

TEST(MatrixTest, ConstructionAndFill) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.size(), 6u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m.Fill(0.0);
  EXPECT_DOUBLE_EQ(m.Sum(), 0.0);
  EXPECT_TRUE(Matrix().empty());
}

TEST(MatrixTest, FromRowsAndIdentity) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}});
  EXPECT_DOUBLE_EQ(m(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
  Matrix i = Matrix::Identity(3);
  EXPECT_DOUBLE_EQ(i.Sum(), 3.0);
  EXPECT_DOUBLE_EQ(i(1, 1), 1.0);
  EXPECT_DOUBLE_EQ(i(0, 1), 0.0);
}

TEST(MatrixTest, ElementwiseArithmetic) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{10, 20}, {30, 40}});
  Matrix sum = a + b;
  EXPECT_DOUBLE_EQ(sum(1, 1), 44.0);
  Matrix diff = b - a;
  EXPECT_DOUBLE_EQ(diff(0, 0), 9.0);
  Matrix scaled = a * 2.0;
  EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
  Matrix had = a.Hadamard(b);
  EXPECT_DOUBLE_EQ(had(0, 1), 40.0);
}

TEST(MatrixTest, TransposeRoundTrip) {
  Rng rng(1);
  Matrix m = Matrix::Gaussian(4, 7, &rng);
  EXPECT_TRUE(m.Transpose().Transpose().ApproxEquals(m));
  EXPECT_DOUBLE_EQ(m.Transpose()(3, 2), m(2, 3));
}

TEST(MatrixTest, Reductions) {
  Matrix m = Matrix::FromRows({{1, -2}, {3, 4}});
  EXPECT_DOUBLE_EQ(m.Sum(), 6.0);
  EXPECT_DOUBLE_EQ(m.Mean(), 1.5);
  EXPECT_DOUBLE_EQ(m.MaxAbs(), 4.0);
  EXPECT_DOUBLE_EQ(m.FrobeniusNorm(), std::sqrt(1 + 4 + 9 + 16.0));
  EXPECT_EQ(m.RowSums(), (std::vector<double>{-1.0, 7.0}));
  EXPECT_EQ(m.ColMeans(), (std::vector<double>{2.0, 1.0}));
}

TEST(MatrixTest, GatherRowsAndSetRow) {
  Matrix m = Matrix::FromRows({{1, 2}, {3, 4}, {5, 6}});
  Matrix g = m.GatherRows({2, 0, 2});
  EXPECT_EQ(g.rows(), 3u);
  EXPECT_DOUBLE_EQ(g(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(g(1, 1), 2.0);
  EXPECT_DOUBLE_EQ(g(2, 0), 5.0);
  m.SetRow(1, {7.0, 8.0});
  EXPECT_DOUBLE_EQ(m(1, 0), 7.0);
}

TEST(MatrixTest, MapAndApproxEquals) {
  Matrix m = Matrix::FromRows({{1, 4}, {9, 16}});
  Matrix r = m.Map([](double v) { return std::sqrt(v); });
  EXPECT_TRUE(r.ApproxEquals(Matrix::FromRows({{1, 2}, {3, 4}}), 1e-12));
  EXPECT_FALSE(r.ApproxEquals(m));
  EXPECT_FALSE(r.ApproxEquals(Matrix(2, 3)));
}

TEST(MatrixTest, MatMulSmallKnownResult) {
  Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  Matrix c = MatMul(a, b);
  EXPECT_TRUE(c.ApproxEquals(Matrix::FromRows({{19, 22}, {43, 50}})));
}

TEST(MatrixTest, MatMulIdentity) {
  Rng rng(2);
  Matrix m = Matrix::Gaussian(5, 5, &rng);
  EXPECT_TRUE(MatMul(m, Matrix::Identity(5)).ApproxEquals(m, 1e-12));
  EXPECT_TRUE(MatMul(Matrix::Identity(5), m).ApproxEquals(m, 1e-12));
}

TEST(MatrixTest, TransposeKernelsAgree) {
  Rng rng(3);
  Matrix a = Matrix::Gaussian(6, 4, &rng);
  Matrix b = Matrix::Gaussian(5, 4, &rng);
  EXPECT_TRUE(
      MatMulTransposeB(a, b).ApproxEquals(MatMul(a, b.Transpose()), 1e-10));
  Matrix c = Matrix::Gaussian(6, 3, &rng);
  EXPECT_TRUE(
      MatMulTransposeA(a, c).ApproxEquals(MatMul(a.Transpose(), c), 1e-10));
}

TEST(MatrixTest, MatMulLargeParallelMatchesSerialSum) {
  // Product with a ones-vector equals row sums — checks the parallel path.
  Rng rng(4);
  Matrix a = Matrix::Gaussian(300, 50, &rng);
  Matrix ones(50, 1, 1.0);
  Matrix out = MatMul(a, ones);
  const auto sums = a.RowSums();
  for (size_t i = 0; i < a.rows(); ++i) {
    EXPECT_NEAR(out(i, 0), sums[i], 1e-9);
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
  Matrix left = MatMul(a, b).Transpose();
  Matrix right = MatMul(b.Transpose(), a.Transpose());
  EXPECT_TRUE(left.ApproxEquals(right, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatMulTransposePropertyTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(2, 3, 4),
                      std::make_tuple(7, 1, 5), std::make_tuple(16, 8, 2),
                      std::make_tuple(65, 33, 17)));

// ---- blocked-kernel determinism vs the serial reference kernels ----

using ::grgad::testing::BitwiseEqual;
using ::grgad::testing::ScopedDegree;

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
  EXPECT_TRUE(BitwiseEqual(MatMul(a, b), reference::MatMul(a, b)));
  EXPECT_TRUE(BitwiseEqual(a.Transpose(), reference::Transpose(a)));
  Matrix bt = Matrix::Gaussian(n, k, &rng);
  EXPECT_TRUE(MatMulTransposeB(a, bt).ApproxEquals(
      reference::MatMulTransposeB(a, bt), 1e-12));
  Matrix at = Matrix::Gaussian(k, m, &rng);
  EXPECT_TRUE(MatMulTransposeA(at, b).ApproxEquals(
      reference::MatMulTransposeA(at, b), 1e-12));
}

TEST_P(KernelReferenceTest, BitwiseIdenticalAcrossThreadCounts) {
  const auto [m, k, n] = GetParam();
  Rng rng(173 + m + 3 * k + 7 * n);
  Matrix a = Matrix::Gaussian(m, k, &rng);
  Matrix b = Matrix::Gaussian(k, n, &rng);
  Matrix serial;
  {
    ScopedDegree degree(1);
    serial = MatMul(a, b);
  }
  for (int threads : {2, 4, 8}) {
    ScopedDegree degree(threads);
    EXPECT_TRUE(BitwiseEqual(MatMul(a, b), serial)) << threads << " threads";
    // Repeated runs at a fixed degree must also be bitwise stable.
    EXPECT_TRUE(BitwiseEqual(MatMul(a, b), MatMul(a, b)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KernelReferenceTest,
    ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(4, 32, 32),
                      std::make_tuple(5, 7, 33), std::make_tuple(64, 64, 64),
                      std::make_tuple(130, 96, 70),
                      std::make_tuple(33, 128, 257)));

TEST(MatrixTest, MapFnMatchesMapAndGoesParallel) {
  Rng rng(7);
  // Large enough to cross the parallel-map threshold.
  Matrix m = Matrix::Gaussian(260, 260, &rng);
  ScopedDegree degree(4);
  Matrix via_fn = m.MapFn([](double v) { return v * 2.0 + 1.0; });
  Matrix via_std = m.Map([](double v) { return v * 2.0 + 1.0; });
  EXPECT_TRUE(BitwiseEqual(via_fn, via_std));
}

TEST(MatrixTest, MatMulInsideParallelRegionIsSafe) {
  // Kernels may be invoked from code that is itself inside a ParallelFor;
  // the nested dispatch must degrade to inline execution, not deadlock.
  ScopedDegree degree(4);
  Rng rng(8);
  Matrix a = Matrix::Gaussian(24, 16, &rng);
  Matrix b = Matrix::Gaussian(16, 12, &rng);
  Matrix expected = MatMul(a, b);
  std::vector<Matrix> results(8);
  ParallelFor(8, 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) results[i] = MatMul(a, b);
  });
  for (const Matrix& r : results) EXPECT_TRUE(BitwiseEqual(r, expected));
}

TEST(MatrixIntoKernelsTest, MatchAllocatingKernelsBitwise) {
  Rng rng(99);
  const Matrix a = Matrix::Gaussian(37, 23, &rng);
  const Matrix b = Matrix::Gaussian(23, 19, &rng);
  const Matrix c = Matrix::Gaussian(37, 23, &rng);

  Matrix out(37, 19, /*fill=*/5.0);  // Stale contents must not leak through.
  MatMulInto(a, b, &out);
  EXPECT_TRUE(BitwiseEqual(out, MatMul(a, b)));

  Matrix tb(37, 37, 5.0);
  MatMulTransposeBInto(a, c, &tb);
  EXPECT_TRUE(BitwiseEqual(tb, MatMulTransposeB(a, c)));

  Matrix ta(23, 23, 5.0);
  MatMulTransposeAInto(a, c, &ta);
  EXPECT_TRUE(BitwiseEqual(ta, MatMulTransposeA(a, c)));

  Matrix tr(23, 37);
  TransposeInto(a, &tr);
  EXPECT_TRUE(BitwiseEqual(tr, a.Transpose()));

  Matrix ew(37, 23);
  AddInto(a, c, &ew);
  EXPECT_TRUE(BitwiseEqual(ew, a + c));
  SubInto(a, c, &ew);
  EXPECT_TRUE(BitwiseEqual(ew, a - c));
  HadamardInto(a, c, &ew);
  EXPECT_TRUE(BitwiseEqual(ew, a.Hadamard(c)));
  ScaledInto(a, -1.75, &ew);
  EXPECT_TRUE(BitwiseEqual(ew, a * -1.75));

  Matrix mapped(37, 23);
  a.MapToFn(&mapped, [](double v) { return v > 0.0 ? v : 0.0; });
  EXPECT_TRUE(
      BitwiseEqual(mapped, a.MapFn([](double v) { return v > 0.0 ? v : 0.0; })));
}

TEST(MatrixInPlaceKernelsTest, MatchOutOfPlaceBitwise) {
  Rng rng(100);
  const Matrix a = Matrix::Gaussian(41, 17, &rng);
  const Matrix b = Matrix::Gaussian(41, 17, &rng);
  Matrix x = a;
  x.AddInPlace(b);
  EXPECT_TRUE(BitwiseEqual(x, a + b));
  x = a;
  x.SubInPlace(b);
  EXPECT_TRUE(BitwiseEqual(x, a - b));
  x = a;
  x.MulInPlace(b);
  EXPECT_TRUE(BitwiseEqual(x, a.Hadamard(b)));
  x = Matrix(41, 17, 3.0);
  x.CopyFrom(a);
  EXPECT_TRUE(BitwiseEqual(x, a));
}

}  // namespace
}  // namespace grgad
