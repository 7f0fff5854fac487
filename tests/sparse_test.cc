// CSR SparseMatrix: construction semantics (dedup, sorting), SpMM kernels,
// transpose, normalizers, and sparse-sparse products against dense oracles,
// plus determinism of the parallel/cached kernels vs the serial references.
#include "src/tensor/sparse.h"

#include <gtest/gtest.h>

#include "tests/reference/reference_kernels.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/kernel_test_util.h"

namespace grgad {
namespace {

using ::grgad::testing::BitwiseEqual;
using ::grgad::testing::Product;
using ::grgad::testing::ScopedDegree;

/// Dense copy of `s` (the oracle side of the dense comparisons).
Matrix Dense(const SparseMatrix& s) {
  Matrix out(s.rows(), s.cols());
  for (size_t i = 0; i < s.rows(); ++i) {
    const auto cols = s.RowCols(i);
    const auto values = s.RowValues(i);
    for (size_t p = 0; p < cols.size(); ++p) out(i, cols[p]) += values[p];
  }
  return out;
}

/// s * x into a fresh output.
Matrix Spmm(const SparseMatrix& s, const Matrix& x) {
  Matrix out(s.rows(), x.cols());
  s.SpmmInto(x, &out);
  return out;
}

/// s^T * x into a fresh output.
Matrix SpmmTransposeThis(const SparseMatrix& s, const Matrix& x) {
  Matrix out(s.cols(), x.cols());
  s.SpmmTransposeThisInto(x, &out);
  return out;
}

Matrix Scaled(const Matrix& m, double factor) {
  Matrix out(m.rows(), m.cols());
  ScaledInto(m, factor, &out);
  return out;
}

SparseMatrix RandomSparse(size_t rows, size_t cols, int nnz, uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplet> t;
  for (int i = 0; i < nnz; ++i) {
    t.push_back({static_cast<int>(rng.UniformInt(uint64_t{rows})),
                 static_cast<int>(rng.UniformInt(uint64_t{cols})),
                 rng.Normal()});
  }
  return SparseMatrix::FromTriplets(rows, cols, std::move(t));
}

TEST(SparseTest, EmptyMatrix) {
  SparseMatrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.nnz(), 0u);
}

TEST(SparseTest, FromTripletsSortsAndDedups) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      3, 3, {{1, 2, 1.0}, {1, 0, 2.0}, {1, 2, 3.0}, {0, 0, 5.0}});
  EXPECT_EQ(m.nnz(), 3u);  // (1,2) summed.
  EXPECT_DOUBLE_EQ(m.At(1, 2), 4.0);
  EXPECT_DOUBLE_EQ(m.At(1, 0), 2.0);
  EXPECT_DOUBLE_EQ(m.At(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(m.At(2, 2), 0.0);
  auto cols = m.RowCols(1);
  EXPECT_TRUE(std::is_sorted(cols.begin(), cols.end()));
  EXPECT_EQ(m.RowNnz(1), 2u);
  EXPECT_EQ(m.RowNnz(2), 0u);
}

TEST(SparseTest, IdentitySpmm) {
  Rng rng(5);
  Matrix x = Matrix::Gaussian(4, 3, &rng);
  const SparseMatrix eye = SparseMatrix::FromTriplets(
      4, 4, {{0, 0, 1.0}, {1, 1, 1.0}, {2, 2, 1.0}, {3, 3, 1.0}});
  EXPECT_TRUE(Spmm(eye, x).ApproxEquals(x, 1e-12));
}

TEST(SparseTest, SpmmMatchesDense) {
  SparseMatrix s = RandomSparse(8, 6, 20, 6);
  Rng rng(7);
  Matrix x = Matrix::Gaussian(6, 5, &rng);
  EXPECT_TRUE(Spmm(s, x).ApproxEquals(Product(Dense(s), x), 1e-10));
}

TEST(SparseTest, SpmmTransposeMatchesDense) {
  SparseMatrix s = RandomSparse(8, 6, 20, 8);
  Rng rng(9);
  Matrix x = Matrix::Gaussian(8, 4, &rng);
  EXPECT_TRUE(SpmmTransposeThis(s, x).ApproxEquals(
      Product(Dense(s).Transpose(), x), 1e-10));
}

TEST(SparseTest, TransposeMatchesDense) {
  SparseMatrix s = RandomSparse(5, 9, 15, 10);
  EXPECT_TRUE(Dense(s.Transpose()).ApproxEquals(Dense(s).Transpose(), 1e-12));
}

TEST(SparseTest, SpmmIntoOverwritesStaleOutput) {
  SparseMatrix s = RandomSparse(12, 9, 30, 11);
  Rng rng(13);
  Matrix x = Matrix::Gaussian(9, 5, &rng);
  Matrix out(12, 5, /*fill=*/9.0);  // Stale contents must not leak through.
  s.SpmmInto(x, &out);
  EXPECT_TRUE(BitwiseEqual(out, reference::Spmm(s, x)));
}

TEST(SparseTest, SpmmTransposeThisIntoOverwritesStaleOutput) {
  SparseMatrix s = RandomSparse(12, 9, 30, 12);
  Rng rng(14);
  Matrix x = Matrix::Gaussian(12, 5, &rng);
  for (int threads : {1, 4}) {  // The scatter and the gather kernel.
    ScopedDegree degree(threads);
    Matrix out(9, 5, /*fill=*/9.0);
    s.SpmmTransposeThisInto(x, &out);
    EXPECT_TRUE(BitwiseEqual(out, reference::SpmmTransposeThis(s, x)))
        << threads << " threads";
  }
}

TEST(SparseTest, RowSums) {
  SparseMatrix s = SparseMatrix::FromTriplets(
      2, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 1, -3.0}});
  EXPECT_EQ(s.RowSums(), (std::vector<double>{3.0, -3.0}));
}

TEST(SparseTest, RowNormalized) {
  SparseMatrix s = SparseMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0}, {0, 1, 3.0}, {1, 0, -2.0}});
  SparseMatrix n = s.RowNormalized();
  EXPECT_DOUBLE_EQ(n.At(0, 0), 0.25);
  EXPECT_DOUBLE_EQ(n.At(0, 1), 0.75);
  EXPECT_DOUBLE_EQ(n.At(1, 0), -1.0);  // |sum| normalization.
}

TEST(SparseTest, MaxNormalizedAndScaled) {
  SparseMatrix s = SparseMatrix::FromTriplets(2, 2, {{0, 0, -4.0},
                                                     {1, 1, 2.0}});
  SparseMatrix n = s.MaxNormalized();
  EXPECT_DOUBLE_EQ(n.At(0, 0), -1.0);
  EXPECT_DOUBLE_EQ(n.At(1, 1), 0.5);
  EXPECT_DOUBLE_EQ(s.Scaled(0.5).At(0, 0), -2.0);
  // Empty matrix: no-op.
  SparseMatrix empty;
  EXPECT_EQ(empty.MaxNormalized().nnz(), 0u);
}

TEST(SparseTest, ApproxEqualsHandlesExplicitZeros) {
  SparseMatrix a = SparseMatrix::FromTriplets(2, 2, {{0, 0, 1.0},
                                                     {0, 1, 0.0}});
  SparseMatrix b = SparseMatrix::FromTriplets(2, 2, {{0, 0, 1.0}});
  EXPECT_TRUE(a.ApproxEquals(b));
  SparseMatrix c = SparseMatrix::FromTriplets(2, 2, {{0, 0, 1.0},
                                                     {1, 1, 0.1}});
  EXPECT_FALSE(a.ApproxEquals(c));
}

TEST(SparseTest, MatMulSparseMatchesDense) {
  SparseMatrix a = RandomSparse(6, 5, 12, 11);
  SparseMatrix b = RandomSparse(5, 7, 14, 12);
  Matrix expected = Product(Dense(a), Dense(b));
  EXPECT_TRUE(Dense(MatMulSparse(a, b)).ApproxEquals(expected, 1e-10));
}

TEST(SparseTest, MatMulSparsePrunes) {
  SparseMatrix a = SparseMatrix::FromTriplets(1, 1, {{0, 0, 1e-4}});
  SparseMatrix b = SparseMatrix::FromTriplets(1, 1, {{0, 0, 1e-4}});
  EXPECT_EQ(MatMulSparse(a, b, 1e-6).nnz(), 0u);
  EXPECT_EQ(MatMulSparse(a, b, 0.0).nnz(), 1u);
}

TEST(SparseTest, SpmmKernelsMatchSerialReferenceBitwise) {
  SparseMatrix s = RandomSparse(60, 45, 300, 21);
  Rng rng(22);
  Matrix x = Matrix::Gaussian(45, 19, &rng);
  Matrix xt = Matrix::Gaussian(60, 19, &rng);
  Matrix ref_fwd = reference::Spmm(s, x);
  Matrix ref_bwd = reference::SpmmTransposeThis(s, xt);
  for (int threads : {1, 2, 4, 8}) {
    ScopedDegree degree(threads);
    // Both the serial scatter path (degree 1) and the cached-transpose
    // gather path (degree > 1) accumulate every output element's terms in
    // ascending source-row order: agreement is bitwise, not approximate.
    EXPECT_TRUE(BitwiseEqual(Spmm(s, x), ref_fwd)) << threads << " threads";
    EXPECT_TRUE(BitwiseEqual(SpmmTransposeThis(s, xt), ref_bwd))
        << threads << " threads";
    // Repeated calls (now served by the transpose cache) stay stable.
    EXPECT_TRUE(BitwiseEqual(SpmmTransposeThis(s, xt), ref_bwd))
        << threads << " threads, cached";
  }
}

TEST(SparseTest, TransposeCacheSurvivesCopiesCorrectly) {
  ScopedDegree degree(4);
  SparseMatrix s = RandomSparse(30, 40, 150, 23);
  Rng rng(24);
  Matrix x = Matrix::Gaussian(30, 8, &rng);
  // Populates s's transpose cache.
  Matrix base = SpmmTransposeThis(s, x);
  // A value-scaled copy must not inherit the stale cached transpose.
  SparseMatrix doubled = s.Scaled(2.0);
  EXPECT_TRUE(
      SpmmTransposeThis(doubled, x).ApproxEquals(Scaled(base, 2.0), 1e-12));
  SparseMatrix copied(s);
  SparseMatrix halved = copied.Scaled(0.5);
  EXPECT_TRUE(
      SpmmTransposeThis(halved, x).ApproxEquals(Scaled(base, 0.5), 1e-12));
  // Moves may keep the cache: results must be identical before/after.
  SparseMatrix moved = std::move(copied);
  EXPECT_TRUE(BitwiseEqual(SpmmTransposeThis(moved, x), base));
}

TEST(SparseTest, TransposeTwiceRoundTrips) {
  SparseMatrix s = RandomSparse(13, 29, 80, 25);
  EXPECT_TRUE(s.Transpose().Transpose().ApproxEquals(s, 0.0));
  // Column indices inside each transposed row must be sorted (CSR contract).
  SparseMatrix t = s.Transpose();
  for (size_t i = 0; i < t.rows(); ++i) {
    auto cols = t.RowCols(i);
    EXPECT_TRUE(std::is_sorted(cols.begin(), cols.end()));
  }
}

TEST(SparseTest, MatMulSparseHandlesTransientCancellation) {
  // Row 0 of a*b accumulates +1 then -1 then +1 into column 0: the partial
  // sum passes through exact 0.0 mid-row, which made the seed's
  // acc[j] == 0.0 touch-test re-push the column and emit it twice.
  SparseMatrix a = SparseMatrix::FromTriplets(
      1, 3, {{0, 0, 1.0}, {0, 1, 1.0}, {0, 2, 1.0}});
  SparseMatrix b = SparseMatrix::FromTriplets(
      3, 1, {{0, 0, 1.0}, {1, 0, -1.0}, {2, 0, 1.0}});
  SparseMatrix product = MatMulSparse(a, b);
  EXPECT_EQ(product.nnz(), 1u);
  EXPECT_DOUBLE_EQ(product.At(0, 0), 1.0);
  EXPECT_TRUE(
      Dense(product).ApproxEquals(Product(Dense(a), Dense(b)), 1e-12));
}

// Property: (A B)^T == B^T A^T for sparse products.
class SparseProductPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SparseProductPropertyTest, TransposeOfProduct) {
  const int seed = GetParam();
  SparseMatrix a = RandomSparse(7, 6, 18, seed);
  SparseMatrix b = RandomSparse(6, 8, 18, seed + 1000);
  SparseMatrix left = MatMulSparse(a, b).Transpose();
  SparseMatrix right = MatMulSparse(b.Transpose(), a.Transpose());
  EXPECT_TRUE(left.ApproxEquals(right, 1e-10)) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseProductPropertyTest,
                         ::testing::Range(1, 9));

}  // namespace
}  // namespace grgad
