#include "src/tensor/sparse.h"

#include <algorithm>
#include <cmath>

#include "src/util/parallel.h"

namespace grgad {

SparseMatrix SparseMatrix::FromTriplets(size_t rows, size_t cols,
                                        std::vector<Triplet> triplets) {
  for (const Triplet& t : triplets) {
    GRGAD_CHECK(t.row >= 0 && static_cast<size_t>(t.row) < rows);
    GRGAD_CHECK(t.col >= 0 && static_cast<size_t>(t.col) < cols);
  }
  const auto row_col_less = [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  };
  // Producers like MatMulSparse and Transpose emit in (row, col) order
  // already; skip the O(nnz log nnz) sort for them.
  if (!std::is_sorted(triplets.begin(), triplets.end(), row_col_less)) {
    std::sort(triplets.begin(), triplets.end(), row_col_less);
  }
  SparseMatrix out;
  out.rows_ = rows;
  out.cols_ = cols;
  out.row_ptr_.assign(rows + 1, 0);
  out.col_idx_.reserve(triplets.size());
  out.values_.reserve(triplets.size());
  size_t i = 0;
  while (i < triplets.size()) {
    const int r = triplets[i].row;
    const int c = triplets[i].col;
    double v = 0.0;
    while (i < triplets.size() && triplets[i].row == r &&
           triplets[i].col == c) {
      v += triplets[i].value;
      ++i;
    }
    out.col_idx_.push_back(c);
    out.values_.push_back(v);
    out.row_ptr_[r + 1] = out.col_idx_.size();
  }
  // row_ptr entries for empty trailing rows: make cumulative.
  for (size_t r = 1; r <= rows; ++r) {
    out.row_ptr_[r] = std::max(out.row_ptr_[r], out.row_ptr_[r - 1]);
  }
  return out;
}

SparseMatrix& SparseMatrix::operator=(SparseMatrix&& other) noexcept {
  if (this == &other) return *this;
  rows_ = other.rows_;
  cols_ = other.cols_;
  row_ptr_ = std::move(other.row_ptr_);
  col_idx_ = std::move(other.col_idx_);
  values_ = std::move(other.values_);
  transpose_cache_ = std::move(other.transpose_cache_);
  return *this;
}

double SparseMatrix::At(size_t i, size_t j) const {
  GRGAD_DCHECK(i < rows_ && j < cols_);
  auto cols = RowCols(i);
  auto it = std::lower_bound(cols.begin(), cols.end(), static_cast<int>(j));
  if (it == cols.end() || *it != static_cast<int>(j)) return 0.0;
  return values_[row_ptr_[i] + (it - cols.begin())];
}

void SparseMatrix::SpmmInto(const Matrix& dense, Matrix* out) const {
  GRGAD_CHECK_EQ(cols_, dense.rows());
  GRGAD_CHECK(out != nullptr && out->rows() == rows_ &&
              out->cols() == dense.cols());
  const size_t n = dense.cols();
  // Each chunk zeroes its own output rows: no serial fill ahead of the
  // parallel loop.
  ParallelFor(rows_, 256, [&](size_t begin, size_t end) {
    std::fill(out->RowPtr(begin), out->RowPtr(begin) + (end - begin) * n,
              0.0);
    for (size_t i = begin; i < end; ++i) {
      double* __restrict orow = out->RowPtr(i);
      for (size_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
        const double v = values_[p];
        const double* __restrict drow = dense.RowPtr(col_idx_[p]);
        for (size_t j = 0; j < n; ++j) orow[j] += v * drow[j];
      }
    }
  });
}

const SparseMatrix& SparseMatrix::TransposedView() const {
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (!transpose_cache_) {
    transpose_cache_ = std::make_shared<const SparseMatrix>(Transpose());
  }
  return *transpose_cache_;
}

void SparseMatrix::SpmmTransposeThisInto(const Matrix& dense,
                                         Matrix* out) const {
  GRGAD_CHECK_EQ(rows_, dense.rows());
  GRGAD_CHECK(out != nullptr && out->rows() == cols_ &&
              out->cols() == dense.cols());
  // Two kernels, one accumulation order. With parallelism available, gather
  // over the cached transpose: output rows partition across the pool (the
  // scatter direction cannot parallelize without atomics) and the transpose
  // builds once per operator, then amortizes across training epochs. With a
  // single lane, the seed's serial scatter wins: its random accesses are
  // stores, which the store buffer retires off the critical path, while the
  // gather's random loads stall the FMA chain. Both visit each output
  // element's terms in ascending source-row order, so the choice (and the
  // thread count) never changes results bitwise.
  if (ParallelismDegree() > 1) {
    TransposedView().SpmmInto(dense, out);
    return;
  }
  out->Fill(0.0);
  const size_t n = dense.cols();
  for (size_t i = 0; i < rows_; ++i) {
    const double* __restrict drow = dense.RowPtr(i);
    for (size_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
      const double v = values_[p];
      double* __restrict orow = out->RowPtr(col_idx_[p]);
      for (size_t j = 0; j < n; ++j) orow[j] += v * drow[j];
    }
  }
}

SparseMatrix SparseMatrix::Transpose() const {
  SparseMatrix out;
  out.rows_ = cols_;
  out.cols_ = rows_;
  out.row_ptr_.assign(cols_ + 1, 0);
  out.col_idx_.resize(nnz());
  out.values_.resize(nnz());
  // Counting sort by destination row. Source entries are visited in (row,
  // col) order, so each destination row receives its columns (= source rows)
  // in ascending order — a valid CSR without any sort or duplicate merge.
  for (int c : col_idx_) ++out.row_ptr_[c + 1];
  for (size_t r = 1; r <= cols_; ++r) out.row_ptr_[r] += out.row_ptr_[r - 1];
  std::vector<size_t> cursor(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
      const size_t q = cursor[col_idx_[p]]++;
      out.col_idx_[q] = static_cast<int>(i);
      out.values_[q] = values_[p];
    }
  }
  return out;
}

std::vector<double> SparseMatrix::RowSums() const {
  std::vector<double> out(rows_, 0.0);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
      out[i] += values_[p];
    }
  }
  return out;
}

SparseMatrix SparseMatrix::RowNormalized() const {
  SparseMatrix out = *this;
  for (size_t i = 0; i < rows_; ++i) {
    double s = 0.0;
    for (size_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
      s += std::fabs(values_[p]);
    }
    if (s <= 0.0) continue;
    for (size_t p = row_ptr_[i]; p < row_ptr_[i + 1]; ++p) {
      out.values_[p] /= s;
    }
  }
  return out;
}

SparseMatrix SparseMatrix::MaxNormalized() const {
  double m = 0.0;
  for (double v : values_) m = std::max(m, std::fabs(v));
  if (m <= 0.0) return *this;
  return Scaled(1.0 / m);
}

SparseMatrix SparseMatrix::Scaled(double s) const {
  SparseMatrix out = *this;
  for (double& v : out.values_) v *= s;
  return out;
}

bool SparseMatrix::ApproxEquals(const SparseMatrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  // Compare as dense logic without materializing: both are sorted CSR, but
  // may differ in explicit zeros; walk rows merging indices.
  for (size_t i = 0; i < rows_; ++i) {
    auto ac = RowCols(i);
    auto av = RowValues(i);
    auto bc = other.RowCols(i);
    auto bv = other.RowValues(i);
    size_t pa = 0, pb = 0;
    while (pa < ac.size() || pb < bc.size()) {
      int ca = pa < ac.size() ? ac[pa] : INT32_MAX;
      int cb = pb < bc.size() ? bc[pb] : INT32_MAX;
      double va = 0.0, vb = 0.0;
      if (ca <= cb) va = av[pa++];
      if (cb <= ca) vb = bv[pb++];
      if (std::fabs(va - vb) > tol) return false;
    }
  }
  return true;
}

SparseMatrix MatMulSparse(const SparseMatrix& a, const SparseMatrix& b,
                          double prune_eps) {
  GRGAD_CHECK_EQ(a.cols(), b.rows());
  // Gustavson's algorithm with a dense accumulator per row. An explicit
  // `seen` mask marks touched columns: the seed keyed on acc[j] == 0.0, which
  // re-pushed a column whose partial sum transiently cancelled to zero and
  // emitted it twice. Sorting `touched` per row yields globally (row, col)
  // sorted triplets, so FromTriplets skips its sort.
  std::vector<Triplet> out;
  out.reserve(a.nnz() + b.nnz());
  std::vector<double> acc(b.cols(), 0.0);
  std::vector<uint8_t> seen(b.cols(), 0);
  std::vector<int> touched;
  for (size_t i = 0; i < a.rows(); ++i) {
    touched.clear();
    auto acols = a.RowCols(i);
    auto avals = a.RowValues(i);
    for (size_t p = 0; p < acols.size(); ++p) {
      const int k = acols[p];
      const double av = avals[p];
      auto bcols = b.RowCols(k);
      auto bvals = b.RowValues(k);
      for (size_t q = 0; q < bcols.size(); ++q) {
        const int j = bcols[q];
        if (!seen[j]) {
          seen[j] = 1;
          touched.push_back(j);
        }
        acc[j] += av * bvals[q];
      }
    }
    std::sort(touched.begin(), touched.end());
    for (int j : touched) {
      if (std::fabs(acc[j]) > prune_eps) {
        out.push_back({static_cast<int>(i), j, acc[j]});
      }
      acc[j] = 0.0;
      seen[j] = 0;
    }
  }
  return SparseMatrix::FromTriplets(a.rows(), b.cols(), std::move(out));
}

}  // namespace grgad
