#include "tests/reference/reference_kernels.h"

namespace grgad::reference {

Matrix MatMul(const Matrix& a, const Matrix& b) {
  GRGAD_CHECK_EQ(a.cols(), b.rows());
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  Matrix out(m, n);
  for (size_t i = 0; i < m; ++i) {
    const double* arow = a.RowPtr(i);
    double* orow = out.RowPtr(i);
    for (size_t kk = 0; kk < k; ++kk) {
      const double av = arow[kk];
      if (av == 0.0) continue;
      const double* brow = b.RowPtr(kk);
      for (size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
  return out;
}

Matrix MatMulTransposeB(const Matrix& a, const Matrix& b) {
  GRGAD_CHECK_EQ(a.cols(), b.cols());
  const size_t m = a.rows(), k = a.cols(), n = b.rows();
  Matrix out(m, n);
  for (size_t i = 0; i < m; ++i) {
    const double* arow = a.RowPtr(i);
    double* orow = out.RowPtr(i);
    for (size_t j = 0; j < n; ++j) {
      const double* brow = b.RowPtr(j);
      double s = 0.0;
      for (size_t kk = 0; kk < k; ++kk) s += arow[kk] * brow[kk];
      orow[j] = s;
    }
  }
  return out;
}

Matrix MatMulTransposeA(const Matrix& a, const Matrix& b) {
  GRGAD_CHECK_EQ(a.rows(), b.rows());
  const size_t k = a.rows(), m = a.cols(), n = b.cols();
  Matrix out(m, n);
  for (size_t kk = 0; kk < k; ++kk) {
    const double* arow = a.RowPtr(kk);
    const double* brow = b.RowPtr(kk);
    for (size_t i = 0; i < m; ++i) {
      const double av = arow[i];
      if (av == 0.0) continue;
      double* orow = out.RowPtr(i);
      for (size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
  return out;
}

Matrix Transpose(const Matrix& a) {
  Matrix out(a.cols(), a.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* src = a.RowPtr(i);
    for (size_t j = 0; j < a.cols(); ++j) out(j, i) = src[j];
  }
  return out;
}

Matrix Spmm(const SparseMatrix& s, const Matrix& dense) {
  GRGAD_CHECK_EQ(s.cols(), dense.rows());
  const size_t n = dense.cols();
  Matrix out(s.rows(), n);
  for (size_t i = 0; i < s.rows(); ++i) {
    double* orow = out.RowPtr(i);
    auto cols = s.RowCols(i);
    auto vals = s.RowValues(i);
    for (size_t p = 0; p < cols.size(); ++p) {
      const double v = vals[p];
      const double* drow = dense.RowPtr(cols[p]);
      for (size_t j = 0; j < n; ++j) orow[j] += v * drow[j];
    }
  }
  return out;
}

Matrix SpmmTransposeThis(const SparseMatrix& s, const Matrix& dense) {
  GRGAD_CHECK_EQ(s.rows(), dense.rows());
  const size_t n = dense.cols();
  Matrix out(s.cols(), n);
  for (size_t i = 0; i < s.rows(); ++i) {
    const double* drow = dense.RowPtr(i);
    auto cols = s.RowCols(i);
    auto vals = s.RowValues(i);
    for (size_t p = 0; p < cols.size(); ++p) {
      const double v = vals[p];
      double* orow = out.RowPtr(cols[p]);
      for (size_t j = 0; j < n; ++j) orow[j] += v * drow[j];
    }
  }
  return out;
}

Matrix Map(const Matrix& a, const std::function<double(double)>& f) {
  Matrix out(a.rows(), a.cols());
  const double* src = a.data();
  double* dst = out.data();
  for (size_t i = 0; i < a.size(); ++i) dst[i] = f(src[i]);
  return out;
}

}  // namespace grgad::reference
