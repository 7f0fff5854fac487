#include "src/tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/tensor/arena.h"
#include "src/util/parallel.h"
#include "src/util/rng.h"

namespace grgad {

Matrix Matrix::Gaussian(size_t rows, size_t cols, Rng* rng, double mean,
                        double stddev) {
  GRGAD_CHECK(rng != nullptr);
  Matrix out(rows, cols);
  for (double& v : out.data_) v = rng->Normal(mean, stddev);
  return out;
}

namespace {

/// Chunked elementwise combine: dst[i] = f(dst[i], src[i]). Chunking only
/// splits the flat index range, so results match the serial loop bitwise.
/// No __restrict: self-application (`m += m`) is legal, exactly as it was
/// for the seed's plain loops (per-element load-then-store is well defined
/// under full aliasing).
template <typename F>
void ElementwiseInPlace(double* dst, const double* src, size_t size, F&& f) {
  if (size < 2 * kElementwiseParallelGrain) {
    for (size_t i = 0; i < size; ++i) dst[i] = f(dst[i], src[i]);
  } else {
    ParallelFor(size, kElementwiseParallelGrain,
                [&](size_t begin, size_t end) {
                  for (size_t i = begin; i < end; ++i) {
                    dst[i] = f(dst[i], src[i]);
                  }
                });
  }
}

/// Chunked elementwise binary kernel: out[i] = f(a[i], b[i]).
template <typename F>
void ElementwiseInto(const double* __restrict a, const double* __restrict b,
                     double* __restrict out, size_t size, F&& f) {
  if (size < 2 * kElementwiseParallelGrain) {
    for (size_t i = 0; i < size; ++i) out[i] = f(a[i], b[i]);
  } else {
    ParallelFor(size, kElementwiseParallelGrain,
                [&](size_t begin, size_t end) {
                  for (size_t i = begin; i < end; ++i) out[i] = f(a[i], b[i]);
                });
  }
}

}  // namespace

void Matrix::AddInPlace(const Matrix& other) {
  GRGAD_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  ElementwiseInPlace(data_.data(), other.data_.data(), data_.size(),
                     [](double x, double y) { return x + y; });
}

void Matrix::SubInPlace(const Matrix& other) {
  GRGAD_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  ElementwiseInPlace(data_.data(), other.data_.data(), data_.size(),
                     [](double x, double y) { return x - y; });
}

void Matrix::CopyFrom(const Matrix& other) {
  GRGAD_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  if (!data_.empty()) {
    std::memcpy(data_.data(), other.data_.data(),
                data_.size() * sizeof(double));
  }
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

Matrix Matrix::Transpose() const {
  Matrix out(cols_, rows_);
  TransposeInto(*this, &out);
  return out;
}

void TransposeInto(const Matrix& a, Matrix* out) {
  GRGAD_CHECK(out != nullptr && out->rows() == a.cols() &&
              out->cols() == a.rows());
  // 32x32 tiles: both the source rows and the (strided) destination columns
  // of a tile stay cache-resident, instead of striding through the full
  // destination once per source row. Tiles write disjoint output, so the
  // parallel version is bitwise identical to the serial one.
  constexpr size_t kTile = 32;
  const size_t rows = a.rows(), cols = a.cols();
  const size_t row_tiles = (rows + kTile - 1) / kTile;
  double* od = out->data();
  ParallelFor(row_tiles, 4, [&](size_t tile_begin, size_t tile_end) {
    for (size_t t = tile_begin; t < tile_end; ++t) {
      const size_t i0 = t * kTile;
      const size_t in = std::min(kTile, rows - i0);
      for (size_t j0 = 0; j0 < cols; j0 += kTile) {
        const size_t jn = std::min(kTile, cols - j0);
        for (size_t i = 0; i < in; ++i) {
          const double* src = a.RowPtr(i0 + i) + j0;
          for (size_t j = 0; j < jn; ++j) {
            od[(j0 + j) * rows + i0 + i] = src[j];
          }
        }
      }
    }
  });
}

void Matrix::Fill(double v) { std::fill(data_.begin(), data_.end(), v); }

double Matrix::FrobeniusNorm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

std::vector<double> Matrix::ColMeans() const {
  std::vector<double> out(cols_, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    const double* row = RowPtr(i);
    for (size_t j = 0; j < cols_; ++j) out[j] += row[j];
  }
  if (rows_ > 0) {
    for (double& v : out) v /= static_cast<double>(rows_);
  }
  return out;
}

Matrix Matrix::GatherRows(const std::vector<int>& rows) const {
  Matrix out(rows.size(), cols_);
  GatherRowsInto(rows, &out);
  return out;
}

void Matrix::GatherRowsInto(const std::vector<int>& rows, Matrix* out) const {
  GRGAD_CHECK(out != nullptr && out->rows_ == rows.size() &&
              out->cols_ == cols_);
  for (size_t i = 0; i < rows.size(); ++i) {
    GRGAD_CHECK(rows[i] >= 0 && static_cast<size_t>(rows[i]) < rows_);
    std::memcpy(out->RowPtr(i), RowPtr(rows[i]), cols_ * sizeof(double));
  }
}

void Matrix::SetRow(size_t i, const std::vector<double>& row) {
  GRGAD_CHECK_EQ(row.size(), cols_);
  std::memcpy(RowPtr(i), row.data(), cols_ * sizeof(double));
}

bool Matrix::ApproxEquals(const Matrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tol) return false;
  }
  return true;
}

std::string Matrix::ToString(int max_rows, int max_cols) const {
  std::string out = "Matrix(" + std::to_string(rows_) + "x" +
                    std::to_string(cols_) + ")";
  const size_t r = std::min<size_t>(rows_, max_rows);
  const size_t c = std::min<size_t>(cols_, max_cols);
  char buf[48];
  for (size_t i = 0; i < r; ++i) {
    out += "\n  ";
    for (size_t j = 0; j < c; ++j) {
      std::snprintf(buf, sizeof(buf), "% .4g ", (*this)(i, j));
      out += buf;
    }
    if (c < cols_) out += "...";
  }
  if (r < rows_) out += "\n  ...";
  return out;
}

namespace {

// Register-blocked MatMul panel (see PERF.md).
//
// The inner kernel holds a 4-row x 2-vector tile of out in eight NAMED
// vector variables (GCC/Clang vector extensions), accumulating across the
// whole k loop and storing each output element exactly once — the seed's
// i-k-j loop re-loaded and re-stored every output element k times and was
// store-port bound. Explicit vector variables instead of a double[4][N]
// array matter: with runtime strides GCC's auto-vectorizer either picks the
// k loop (strided loads) or spills the accumulator array to the stack on
// every FMA, both measured 2-4x SLOWER than the seed loop. The vector width
// tracks the ISA so eight accumulators plus two B vectors fit the register
// file (zmm on AVX-512, ymm on AVX, xmm otherwise).
#if defined(__AVX512F__)
typedef double vd __attribute__((vector_size(64), aligned(8), may_alias));
#elif defined(__AVX__)
typedef double vd __attribute__((vector_size(32), aligned(8), may_alias));
#else
typedef double vd __attribute__((vector_size(16), aligned(8), may_alias));
#endif
constexpr size_t kVecWidth = sizeof(vd) / sizeof(double);
constexpr size_t kTileRows = 4;
constexpr size_t kTileCols = 2 * kVecWidth;

// Tail kernel for rows/column ranges not covered by full register tiles:
// the seed's single-row i-k-j loop restricted to columns [j0, j0+jn). Same
// ascending-k accumulation order as the register-tiled path.
void MatMulRowTail(const double* ad, const double* bd, double* od, size_t i,
                   size_t j0, size_t jn, size_t k, size_t n) {
  const double* arow = ad + i * k;
  double* __restrict orow = od + i * n + j0;
  for (size_t kk = 0; kk < k; ++kk) {
    const double* __restrict brow = bd + kk * n + j0;
    const double av = arow[kk];
    for (size_t j = 0; j < jn; ++j) orow[j] += av * brow[j];
  }
}

// Multiplies rows [row_begin, row_end) of a into out (full k reduction) as
// register tiles plus seed-shaped tails. Every output element accumulates
// its k products in ascending kk order, so the result is bitwise identical
// to the serial reference kernel, independent of tiling, tails, and the row
// partition (hence of GRGAD_THREADS).
void MatMulPanel(const double* __restrict ad, const double* __restrict bd,
                 double* __restrict od, size_t row_begin, size_t row_end,
                 size_t k, size_t n) {
  const size_t n_tiled = n - n % kTileCols;
  size_t i = row_begin;
  for (; i + kTileRows <= row_end; i += kTileRows) {
    const double* a0 = ad + (i + 0) * k;
    const double* a1 = ad + (i + 1) * k;
    const double* a2 = ad + (i + 2) * k;
    const double* a3 = ad + (i + 3) * k;
    for (size_t j0 = 0; j0 < n_tiled; j0 += kTileCols) {
      vd c00{}, c01{}, c10{}, c11{}, c20{}, c21{}, c30{}, c31{};
      const double* bp = bd + j0;
      for (size_t kk = 0; kk < k; ++kk, bp += n) {
        const vd b0 = *reinterpret_cast<const vd*>(bp);
        const vd b1 = *reinterpret_cast<const vd*>(bp + kVecWidth);
        const double v0 = a0[kk], v1 = a1[kk], v2 = a2[kk], v3 = a3[kk];
        c00 += b0 * v0;
        c01 += b1 * v0;
        c10 += b0 * v1;
        c11 += b1 * v1;
        c20 += b0 * v2;
        c21 += b1 * v2;
        c30 += b0 * v3;
        c31 += b1 * v3;
      }
      double* o0 = od + (i + 0) * n + j0;
      double* o1 = od + (i + 1) * n + j0;
      double* o2 = od + (i + 2) * n + j0;
      double* o3 = od + (i + 3) * n + j0;
      *reinterpret_cast<vd*>(o0) = c00;
      *reinterpret_cast<vd*>(o0 + kVecWidth) = c01;
      *reinterpret_cast<vd*>(o1) = c10;
      *reinterpret_cast<vd*>(o1 + kVecWidth) = c11;
      *reinterpret_cast<vd*>(o2) = c20;
      *reinterpret_cast<vd*>(o2 + kVecWidth) = c21;
      *reinterpret_cast<vd*>(o3) = c30;
      *reinterpret_cast<vd*>(o3 + kVecWidth) = c31;
    }
    if (n_tiled < n) {
      for (size_t r = 0; r < kTileRows; ++r) {
        MatMulRowTail(ad, bd, od, i + r, n_tiled, n - n_tiled, k, n);
      }
    }
  }
  for (; i < row_end; ++i) MatMulRowTail(ad, bd, od, i, 0, n, k, n);
}

}  // namespace

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out) {
  GRGAD_CHECK_EQ(a.cols(), b.rows());
  GRGAD_CHECK(out != nullptr && out->rows() == a.rows() &&
              out->cols() == b.cols());
  // The tail kernels accumulate into the output, so clear stale contents
  // first; full register tiles overwrite regardless.
  out->Fill(0.0);
  const size_t k = a.cols(), n = b.cols();
  const double* ad = a.data();
  const double* bd = b.data();
  double* od = out->data();
  ParallelFor(a.rows(), 2 * kTileRows, [&](size_t begin, size_t end) {
    MatMulPanel(ad, bd, od, begin, end, k, n);
  });
}

namespace {

/// Materializes `m`'s transpose in an arena-backed scratch when an arena is
/// installed (the transpose is fully overwritten, so stale contents are
/// fine) and hands it to `fn`, returning the scratch afterwards.
template <typename Fn>
void WithTransposed(const Matrix& m, Fn&& fn) {
  Matrix mt = arena::Uninit(m.cols(), m.rows());
  TransposeInto(m, &mt);
  fn(mt);
  arena::Recycle(std::move(mt));
}

}  // namespace

// Transposing one operand once and running the blocked MatMulInto beats the
// seed's per-element dot products (TransposeB) and serial rank-1
// accumulation (TransposeA) by a wide margin. Accumulation order per out
// element is ascending k in both shapes, but the compiler may contract FMAs
// differently, so agreement with the reference kernels is ~1e-13, not
// bitwise (results ARE bitwise stable across thread counts and runs).
void MatMulTransposeBInto(const Matrix& a, const Matrix& b, Matrix* out) {
  GRGAD_CHECK_EQ(a.cols(), b.cols());
  GRGAD_CHECK(out != nullptr && out->rows() == a.rows() &&
              out->cols() == b.rows());
  WithTransposed(b, [&](const Matrix& bt) { MatMulInto(a, bt, out); });
}

void MatMulTransposeAInto(const Matrix& a, const Matrix& b, Matrix* out) {
  GRGAD_CHECK_EQ(a.rows(), b.rows());
  GRGAD_CHECK(out != nullptr && out->rows() == a.cols() &&
              out->cols() == b.cols());
  WithTransposed(a, [&](const Matrix& at) { MatMulInto(at, b, out); });
}

void AddInto(const Matrix& a, const Matrix& b, Matrix* out) {
  GRGAD_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  GRGAD_CHECK(out != nullptr && out->rows() == a.rows() &&
              out->cols() == a.cols());
  ElementwiseInto(a.data(), b.data(), out->data(), a.size(),
                  [](double x, double y) { return x + y; });
}

void ScaledInto(const Matrix& a, double s, Matrix* out) {
  a.MapToFn(out, [s](double v) { return v * s; });
}

}  // namespace grgad
