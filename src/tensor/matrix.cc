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

// What the panel applies to each finished output element before storing
// it: + bias[j] when bias is set, then max(0, .) when relu. It acts on the
// complete k sum, so every element gets the same single `sum + b` rounding
// and the same clamp as a separate bias/ReLU pass over the product.
struct Epilogue {
  const double* bias = nullptr;
  bool relu = false;
};

// Tail kernel for rows/column ranges not covered by full register tiles:
// the seed's single-row i-k-j loop restricted to columns [j0, j0+jn), from
// zero. Same ascending-k accumulation order as the register-tiled path.
void MatMulRowTail(const double* ad, const double* bd, double* od, size_t i,
                   size_t j0, size_t jn, size_t k, size_t n,
                   const Epilogue& ep) {
  const double* arow = ad + i * k;
  double* __restrict orow = od + i * n + j0;
  std::fill(orow, orow + jn, 0.0);
  for (size_t kk = 0; kk < k; ++kk) {
    const double* __restrict brow = bd + kk * n + j0;
    const double av = arow[kk];
    for (size_t j = 0; j < jn; ++j) orow[j] += av * brow[j];
  }
  if (ep.bias == nullptr && !ep.relu) return;
  for (size_t j = 0; j < jn; ++j) {
    double v = orow[j];
    if (ep.bias != nullptr) v += ep.bias[j0 + j];
    orow[j] = ep.relu ? (v > 0.0 ? v : 0.0) : v;
  }
}

// Multiplies rows [row_begin, row_end) of a into out (full k reduction) as
// register tiles plus seed-shaped tails. Every output element accumulates
// its k products in ascending kk order, so the result is bitwise identical
// to the serial reference kernel, independent of tiling, tails, and the row
// partition (hence of GRGAD_THREADS).
void MatMulPanel(const double* __restrict ad, const double* __restrict bd,
                 double* __restrict od, size_t row_begin, size_t row_end,
                 size_t k, size_t n, const Epilogue& ep) {
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
      if (ep.bias != nullptr) {
        const vd bias0 = *reinterpret_cast<const vd*>(ep.bias + j0);
        const vd bias1 = *reinterpret_cast<const vd*>(ep.bias + j0 + kVecWidth);
        c00 += bias0;
        c01 += bias1;
        c10 += bias0;
        c11 += bias1;
        c20 += bias0;
        c21 += bias1;
        c30 += bias0;
        c31 += bias1;
      }
      if (ep.relu) {
        const vd zero{};
        c00 = c00 > zero ? c00 : zero;
        c01 = c01 > zero ? c01 : zero;
        c10 = c10 > zero ? c10 : zero;
        c11 = c11 > zero ? c11 : zero;
        c20 = c20 > zero ? c20 : zero;
        c21 = c21 > zero ? c21 : zero;
        c30 = c30 > zero ? c30 : zero;
        c31 = c31 > zero ? c31 : zero;
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
        MatMulRowTail(ad, bd, od, i + r, n_tiled, n - n_tiled, k, n, ep);
      }
    }
  }
  for (; i < row_end; ++i) MatMulRowTail(ad, bd, od, i, 0, n, k, n, ep);
}

}  // namespace

void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out) {
  AffineInto(a, b, /*bias=*/nullptr, /*relu=*/false, out);
}

void AffineInto(const Matrix& a, const Matrix& b, const Matrix* bias,
                bool relu, Matrix* out) {
  GRGAD_CHECK_EQ(a.cols(), b.rows());
  GRGAD_CHECK(out != nullptr && out->rows() == a.rows() &&
              out->cols() == b.cols());
  if (bias != nullptr) {
    GRGAD_CHECK(bias->rows() == 1 && bias->cols() == b.cols());
  }
  const Epilogue ep{bias != nullptr ? bias->data() : nullptr, relu};
  // Register tiles and tails both overwrite their outputs, so stale
  // contents need no clearing pass.
  const size_t k = a.cols(), n = b.cols();
  const double* ad = a.data();
  const double* bd = b.data();
  double* od = out->data();
  ParallelFor(a.rows(), 2 * kTileRows, [&](size_t begin, size_t end) {
    MatMulPanel(ad, bd, od, begin, end, k, n, ep);
  });
}

namespace {

// aᵀ·b without a materialized transpose (see PERF.md, "The GCN encoder
// epoch"). In the encoder's weight gradient a is N x p and b is N x n with
// N in the tens of thousands and p, n <= 64, so out is tiny and b is large.
// Out element (i, j) is the sum over kk of a[kk][i] * b[kk][j]: a 4-row out
// tile reads a[kk][i..i+3], four adjacent doubles of a's row kk, in place.
// The k range is walked in blocks of kTransposeABlock rows. Each block of b
// (64 x 64 doubles = 32 KB) and the block's slice of a stay in L1/L2 while
// every register tile in the caller's row range passes over them, so b
// streams from memory once per row range instead of once per tile. (On a
// 4-vCPU AVX-512 Xeon, 64-row blocks ran the simml shapes 15-25% faster
// than 256-row blocks on one thread and the same on four.) Tiles carry
// their accumulators across blocks through out (zero-filled first): a
// double round-trips through memory exactly, so every element still runs
// the single ascending-kk chain `c += b * v` from 0 that MatMulInto runs
// on the transpose, bit for bit.
constexpr size_t kTransposeABlock = 64;

// Single-row tail: out row i, columns [j0, j0+jn), over k rows [kb, ke).
// The shape of MatMulRowTail with a read in place.
void TransposeARowTail(const double* ad, const double* bd, double* od,
                       size_t i, size_t j0, size_t jn, size_t kb, size_t ke,
                       size_t p, size_t n) {
  double* __restrict orow = od + i * n + j0;
  for (size_t kk = kb; kk < ke; ++kk) {
    const double* __restrict brow = bd + kk * n + j0;
    const double av = ad[kk * p + i];
    for (size_t j = 0; j < jn; ++j) orow[j] += av * brow[j];
  }
}

// Accumulates k rows [kb, ke) of aᵀ·b into out rows [row_begin, row_end).
void TransposeAPanel(const double* __restrict ad, const double* __restrict bd,
                     double* __restrict od, size_t row_begin, size_t row_end,
                     size_t kb, size_t ke, size_t p, size_t n) {
  const size_t n_tiled = n - n % kTileCols;
  size_t i = row_begin;
  for (; i + kTileRows <= row_end; i += kTileRows) {
    for (size_t j0 = 0; j0 < n_tiled; j0 += kTileCols) {
      double* o0 = od + (i + 0) * n + j0;
      double* o1 = od + (i + 1) * n + j0;
      double* o2 = od + (i + 2) * n + j0;
      double* o3 = od + (i + 3) * n + j0;
      vd c00 = *reinterpret_cast<const vd*>(o0);
      vd c01 = *reinterpret_cast<const vd*>(o0 + kVecWidth);
      vd c10 = *reinterpret_cast<const vd*>(o1);
      vd c11 = *reinterpret_cast<const vd*>(o1 + kVecWidth);
      vd c20 = *reinterpret_cast<const vd*>(o2);
      vd c21 = *reinterpret_cast<const vd*>(o2 + kVecWidth);
      vd c30 = *reinterpret_cast<const vd*>(o3);
      vd c31 = *reinterpret_cast<const vd*>(o3 + kVecWidth);
      const double* ap = ad + kb * p + i;
      const double* bp = bd + kb * n + j0;
      for (size_t kk = kb; kk < ke; ++kk, ap += p, bp += n) {
        const vd b0 = *reinterpret_cast<const vd*>(bp);
        const vd b1 = *reinterpret_cast<const vd*>(bp + kVecWidth);
        const double v0 = ap[0], v1 = ap[1], v2 = ap[2], v3 = ap[3];
        c00 += b0 * v0;
        c01 += b1 * v0;
        c10 += b0 * v1;
        c11 += b1 * v1;
        c20 += b0 * v2;
        c21 += b1 * v2;
        c30 += b0 * v3;
        c31 += b1 * v3;
      }
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
        TransposeARowTail(ad, bd, od, i + r, n_tiled, n - n_tiled, kb, ke, p,
                          n);
      }
    }
  }
  for (; i < row_end; ++i) TransposeARowTail(ad, bd, od, i, 0, n, kb, ke, p, n);
}

}  // namespace

// Transposing b once and running the blocked MatMulInto beats the seed's
// per-element dot products by a wide margin. Accumulation order per out
// element is ascending k, but the compiler may contract FMAs differently
// from the reference kernel, so agreement with it is ~1e-13, not bitwise
// (results ARE bitwise stable across thread counts and runs).
void MatMulTransposeBInto(const Matrix& a, const Matrix& b, Matrix* out) {
  GRGAD_CHECK_EQ(a.cols(), b.cols());
  GRGAD_CHECK(out != nullptr && out->rows() == a.rows() &&
              out->cols() == b.rows());
  // The transpose is arena scratch when an arena is installed; it is
  // fully overwritten, so stale contents are fine.
  Matrix bt = arena::Uninit(b.cols(), b.rows());
  TransposeInto(b, &bt);
  MatMulInto(a, bt, out);
  arena::Recycle(std::move(bt));
}

void MatMulTransposeAInto(const Matrix& a, const Matrix& b, Matrix* out) {
  GRGAD_CHECK_EQ(a.rows(), b.rows());
  GRGAD_CHECK(out != nullptr && out->rows() == a.cols() &&
              out->cols() == b.cols());
  const size_t k = a.rows(), p = a.cols(), n = b.cols();
  const double* ad = a.data();
  const double* bd = b.data();
  double* od = out->data();
  // Row tiles partition over the pool; each chunk zeroes its own rows and
  // walks every k block over them. The grain keeps out's rows per chunk
  // at MatMulInto's 2 * kTileRows.
  const size_t tiles = (p + kTileRows - 1) / kTileRows;
  ParallelFor(tiles, 2, [&](size_t tile_begin, size_t tile_end) {
    const size_t row_begin = tile_begin * kTileRows;
    const size_t row_end = std::min(tile_end * kTileRows, p);
    std::fill(od + row_begin * n, od + row_end * n, 0.0);
    for (size_t kb = 0; kb < k; kb += kTransposeABlock) {
      TransposeAPanel(ad, bd, od, row_begin, row_end, kb,
                      std::min(kb + kTransposeABlock, k), p, n);
    }
  });
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

void ColumnSumsInto(const Matrix& a, Matrix* out) {
  GRGAD_CHECK(out != nullptr && out->rows() == 1 && out->cols() == a.cols());
  const size_t rows = a.rows(), cols = a.cols();
  const double* ad = a.data();
  double* od = out->data();
  // Columns partition over the pool. A block of kSumCols columns keeps its
  // sums in registers across the whole row walk, so no chunk stores
  // partial sums and each column runs the serial row-order chain.
  constexpr size_t kSumCols = 8;
  auto sum_columns = [&](size_t col_begin, size_t col_end) {
    size_t j0 = col_begin;
    for (; j0 + kSumCols <= col_end; j0 += kSumCols) {
      double acc[kSumCols] = {};
      for (size_t i = 0; i < rows; ++i) {
        const double* row = ad + i * cols + j0;
        for (size_t j = 0; j < kSumCols; ++j) acc[j] += row[j];
      }
      for (size_t j = 0; j < kSumCols; ++j) od[j0 + j] = acc[j];
    }
    for (; j0 < col_end; ++j0) {
      double acc = 0.0;
      for (size_t i = 0; i < rows; ++i) acc += ad[i * cols + j0];
      od[j0] = acc;
    }
  };
  if (a.size() < 2 * kElementwiseParallelGrain) {
    sum_columns(0, cols);
  } else {
    ParallelFor(cols, kSumCols, sum_columns);
  }
}

void ReluMaskInto(const Matrix& x, const Matrix& g, Matrix* out) {
  GRGAD_CHECK(x.rows() == g.rows() && x.cols() == g.cols());
  GRGAD_CHECK(out != nullptr && out->rows() == x.rows() &&
              out->cols() == x.cols());
  ElementwiseInto(x.data(), g.data(), out->data(), x.size(),
                  [](double xv, double gv) { return xv <= 0.0 ? 0.0 : gv; });
}

}  // namespace grgad
