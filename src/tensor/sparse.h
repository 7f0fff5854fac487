// Compressed-sparse-row matrix.
//
// Graph operators (normalized adjacency, standardized powers, GraphSNN
// weights, modularity projections) are all CSR SparseMatrix instances; the
// GCN layers consume them through Spmm. Construction goes through triplets
// (sorted and duplicate-summed), after which the matrix is immutable except
// for value-scaling helpers used by the normalizers.
#ifndef GRGAD_TENSOR_SPARSE_H_
#define GRGAD_TENSOR_SPARSE_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "src/tensor/matrix.h"

namespace grgad {

/// One (row, col, value) entry used to build a SparseMatrix.
struct Triplet {
  int row = 0;
  int col = 0;
  double value = 0.0;
};

/// Immutable CSR matrix of doubles.
class SparseMatrix {
 public:
  /// Empty 0x0 matrix.
  SparseMatrix() : rows_(0), cols_(0), row_ptr_(1, 0) {}

  // Copies share no state; the lazily built transpose cache stays behind
  // (value-scaling helpers mutate the copy right after copying, which would
  // invalidate it). Moves keep the cache: the source is abandoned. There is
  // no copy assignment.
  SparseMatrix(const SparseMatrix& other)
      : rows_(other.rows_),
        cols_(other.cols_),
        row_ptr_(other.row_ptr_),
        col_idx_(other.col_idx_),
        values_(other.values_) {}
  SparseMatrix(SparseMatrix&& other) noexcept
      : rows_(other.rows_),
        cols_(other.cols_),
        row_ptr_(std::move(other.row_ptr_)),
        col_idx_(std::move(other.col_idx_)),
        values_(std::move(other.values_)),
        transpose_cache_(std::move(other.transpose_cache_)) {}
  SparseMatrix& operator=(SparseMatrix&& other) noexcept;

  /// Builds from triplets; duplicates are summed, zeros (after summing) are
  /// kept (callers that care can Prune). Indices must be in range.
  static SparseMatrix FromTriplets(size_t rows, size_t cols,
                                   std::vector<Triplet> triplets);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t nnz() const { return values_.size(); }

  /// Column indices of row i, ascending.
  std::span<const int> RowCols(size_t i) const {
    GRGAD_DCHECK(i < rows_);
    return {col_idx_.data() + row_ptr_[i], row_ptr_[i + 1] - row_ptr_[i]};
  }
  /// Values of row i, aligned with RowCols(i).
  std::span<const double> RowValues(size_t i) const {
    GRGAD_DCHECK(i < rows_);
    return {values_.data() + row_ptr_[i], row_ptr_[i + 1] - row_ptr_[i]};
  }
  /// Number of stored entries in row i.
  size_t RowNnz(size_t i) const {
    GRGAD_DCHECK(i < rows_);
    return row_ptr_[i + 1] - row_ptr_[i];
  }

  /// Value at (i, j); 0 if not stored. O(log nnz(row)).
  double At(size_t i, size_t j) const;

  /// Sparse * dense, written into `out` (must be rows() x dense.cols();
  /// stale contents are cleared first) so arena-backed callers reuse the
  /// output buffer; parallel over rows.
  void SpmmInto(const Matrix& dense, Matrix* out) const;

  /// this^T * dense, written into `out` (must be cols() x dense.cols();
  /// stale contents are cleared first); the autograd backward of Spmm. Runs
  /// as a row-parallel gather over a transposed copy of this matrix that is
  /// built once (thread-safely) on first call and reused — graph operators
  /// are fixed across training, so every epoch after the first pays only
  /// the Spmm. The gather visits source rows in ascending order per output
  /// row, exactly the seed scatter's accumulation order, so results are
  /// bitwise identical to the serial reference kernel.
  void SpmmTransposeThisInto(const Matrix& dense, Matrix* out) const;

  /// Transposed copy (CSR of the transpose); O(nnz + rows + cols) counting
  /// sort, no triplet round-trip.
  SparseMatrix Transpose() const;

  /// Sum of each row, length rows().
  std::vector<double> RowSums() const;

  /// Returns a copy whose rows are L1-normalized (zero rows left as zero).
  SparseMatrix RowNormalized() const;

  /// Returns a copy scaled so the largest |value| is 1 (no-op when empty).
  SparseMatrix MaxNormalized() const;

  /// Returns a copy with every stored value multiplied by s.
  SparseMatrix Scaled(double s) const;

  bool ApproxEquals(const SparseMatrix& other, double tol = 1e-9) const;

 private:
  /// Returns the cached transpose, building it under cache_mu_ if absent.
  const SparseMatrix& TransposedView() const;

  size_t rows_;
  size_t cols_;
  std::vector<size_t> row_ptr_;  // length rows_ + 1
  std::vector<int> col_idx_;     // length nnz
  std::vector<double> values_;   // length nnz

  // Lazily built CSR of the transpose, serving SpmmTransposeThisInto.
  // Guarded by cache_mu_; never copied (see copy constructor).
  mutable std::mutex cache_mu_;
  mutable std::shared_ptr<const SparseMatrix> transpose_cache_;

  friend SparseMatrix MatMulSparse(const SparseMatrix&, const SparseMatrix&,
                                   double);
};

/// Sparse a(m x k) * b(k x n) -> sparse, dropping |v| <= prune_eps results.
/// Used to form standardized adjacency powers A^k.
SparseMatrix MatMulSparse(const SparseMatrix& a, const SparseMatrix& b,
                          double prune_eps = 0.0);

}  // namespace grgad

#endif  // GRGAD_TENSOR_SPARSE_H_
