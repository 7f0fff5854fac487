// Dense row-major matrix of doubles.
//
// This is the numeric workhorse under the autograd layer (src/nn) and the
// detectors (src/od). It favours a small, predictable API over genericity:
// double precision only, explicit shapes, bounds-checked element access in
// debug builds, and a blocked parallel matmul tuned for the tall-skinny
// products (n x attr_dim times attr_dim x hidden) that dominate GCN training.
#ifndef GRGAD_TENSOR_MATRIX_H_
#define GRGAD_TENSOR_MATRIX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/util/check.h"
#include "src/util/parallel.h"

namespace grgad {

class Rng;

// Elementwise kernels only go parallel above 2x this many elements; below it
// the dispatch (one std::function capture + pool notify) would dominate.
inline constexpr size_t kElementwiseParallelGrain = 1 << 14;

/// Dense rows x cols matrix, row-major, zero-initialized by default.
class Matrix {
 public:
  /// Empty 0x0 matrix.
  Matrix() : rows_(0), cols_(0) {}

  /// rows x cols matrix filled with `fill` (default 0).
  Matrix(size_t rows, size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// I.i.d. Gaussian entries drawn from `rng`.
  static Matrix Gaussian(size_t rows, size_t cols, Rng* rng,
                         double mean = 0.0, double stddev = 1.0);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(size_t i, size_t j) {
    GRGAD_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }
  double operator()(size_t i, size_t j) const {
    GRGAD_DCHECK(i < rows_ && j < cols_);
    return data_[i * cols_ + j];
  }

  /// Raw pointer to row i (contiguous `cols()` doubles).
  double* RowPtr(size_t i) {
    GRGAD_DCHECK(i < rows_);
    return data_.data() + i * cols_;
  }
  const double* RowPtr(size_t i) const {
    GRGAD_DCHECK(i < rows_);
    return data_.data() + i * cols_;
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

  /// In-place scalar multiply.
  Matrix& operator*=(double s);

  /// this += other, as a pool-chunked AXPY over the flat data (bitwise
  /// identical to the serial loop — chunking only splits the index range).
  /// This is the gradient-accumulation kernel of autograd. `other` may
  /// alias this (e.g. `m += m`).
  void AddInPlace(const Matrix& other);
  /// this -= other (chunked like AddInPlace; aliasing allowed).
  void SubInPlace(const Matrix& other);

  /// Overwrites this (same shape required) with other's entries.
  void CopyFrom(const Matrix& other);

  /// Returns a transposed copy.
  Matrix Transpose() const;

  /// Returns f applied elementwise, with f inlined into the loop (and the
  /// loop chunked over the thread pool for large matrices). Chunking only
  /// splits the flat index range, so results match the serial loop bitwise.
  template <typename F>
  Matrix MapFn(F&& f) const {
    Matrix out(rows_, cols_);
    const double* __restrict src = data_.data();
    double* __restrict dst = out.data_.data();
    const size_t size = data_.size();
    if (size < 2 * kMapParallelGrain) {
      for (size_t i = 0; i < size; ++i) dst[i] = f(src[i]);
    } else {
      ParallelFor(size, kMapParallelGrain, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) dst[i] = f(src[i]);
      });
    }
    return out;
  }

  /// Destination-passing MapFn: writes f applied elementwise into `out`,
  /// which must already have this matrix's shape (every element is
  /// overwritten). Chunking matches MapFn, so results are bitwise equal.
  template <typename F>
  void MapToFn(Matrix* out, F&& f) const {
    GRGAD_CHECK(out != nullptr && out->rows_ == rows_ && out->cols_ == cols_);
    const double* __restrict src = data_.data();
    double* __restrict dst = out->data_.data();
    const size_t size = data_.size();
    if (size < 2 * kMapParallelGrain) {
      for (size_t i = 0; i < size; ++i) dst[i] = f(src[i]);
    } else {
      ParallelFor(size, kMapParallelGrain, [&](size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) dst[i] = f(src[i]);
      });
    }
  }

  /// Fills all entries with `v`.
  void Fill(double v);

  /// sqrt(sum of squares).
  double FrobeniusNorm() const;

  /// Per-column means, length cols().
  std::vector<double> ColMeans() const;

  /// Gathers the given rows (duplicates allowed) into a new matrix.
  Matrix GatherRows(const std::vector<int>& rows) const;
  /// Destination-passing GatherRows; out must be rows.size() x cols() and
  /// is fully overwritten. Row indices are bounds-checked.
  void GatherRowsInto(const std::vector<int>& rows, Matrix* out) const;

  /// Copies `row` (length cols()) into row i.
  void SetRow(size_t i, const std::vector<double>& row);

  /// True if shapes match and entries agree within `tol` absolutely.
  bool ApproxEquals(const Matrix& other, double tol = 1e-9) const;

  /// Compact human-readable dump (small matrices; tests and debugging).
  std::string ToString(int max_rows = 8, int max_cols = 8) const;

 private:
  static constexpr size_t kMapParallelGrain = kElementwiseParallelGrain;

  size_t rows_;
  size_t cols_;
  std::vector<double> data_;
};

// ---------------------------------------------------------------------------
// Destination-passing kernels.
//
// These write into a caller-provided, correctly shaped output instead of
// allocating one, so arena-backed callers (src/nn/autograd.cc) can reuse
// buffers across training epochs. Every kernel fully defines its output
// (stale contents are overwritten or zeroed first).
// ---------------------------------------------------------------------------

/// out = a * b (parallel register-blocked kernel); out must be
/// a.rows() x b.cols().
void MatMulInto(const Matrix& a, const Matrix& b, Matrix* out);
/// out = act(a * b + bias): `bias` is a 1 x b.cols() row added to every
/// row (or null for none) and act is max(0, .) when `relu`. The bias and
/// clamp are applied in the kernel's store, to the same sums MatMulInto
/// computes, so the result is bitwise that of MatMulInto followed by a
/// separate `+ bias` (and clamp) pass.
void AffineInto(const Matrix& a, const Matrix& b, const Matrix* bias,
                bool relu, Matrix* out);
/// out = a * b^T; out must be a.rows() x b.rows(). Scratch for the
/// materialized transpose comes from the current arena when one is
/// installed.
void MatMulTransposeBInto(const Matrix& a, const Matrix& b, Matrix* out);
/// out = a^T * b; out must be a.cols() x b.cols(). Reads a in place (no
/// transpose) and is bitwise equal to MatMulInto over TransposeInto(a).
void MatMulTransposeAInto(const Matrix& a, const Matrix& b, Matrix* out);
/// out = a^T; out must be a.cols() x a.rows().
void TransposeInto(const Matrix& a, Matrix* out);
/// out = a + b (all three the same shape; out may not alias a or b).
void AddInto(const Matrix& a, const Matrix& b, Matrix* out);
/// out = a * s (same shape; out may not alias a).
void ScaledInto(const Matrix& a, double s, Matrix* out);
/// out(0, j) = sum over rows of a(i, j), each column summed over ascending
/// rows from 0 (the serial order); out must be 1 x a.cols().
void ColumnSumsInto(const Matrix& a, Matrix* out);
/// The ReLU backward mask: out = x <= 0 ? 0 : g, elementwise (all three the
/// same shape; out may not alias x or g).
void ReluMaskInto(const Matrix& x, const Matrix& g, Matrix* out);

}  // namespace grgad

#endif  // GRGAD_TENSOR_MATRIX_H_
