// Shared test helpers: literal matrices, fresh products, bitwise matrix
// equality and a scoped parallelism degree.
#ifndef GRGAD_TESTS_KERNEL_TEST_UTIL_H_
#define GRGAD_TESTS_KERNEL_TEST_UTIL_H_

#include <cstring>
#include <initializer_list>

#include "src/tensor/matrix.h"
#include "src/util/thread_pool.h"

namespace grgad::testing {

/// Exact (bit-for-bit) matrix equality; NaNs compare by representation.
/// Empty matrices (whose data() may be null) compare by shape alone.
inline bool BitwiseEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Builds a matrix from nested row lists; all rows must have equal width.
inline Matrix FromRows(
    std::initializer_list<std::initializer_list<double>> rows) {
  const size_t cols = rows.size() == 0 ? 0 : rows.begin()->size();
  Matrix out(rows.size(), cols);
  size_t i = 0;
  for (const auto& row : rows) {
    GRGAD_CHECK_EQ(row.size(), cols);
    size_t j = 0;
    for (double v : row) out(i, j++) = v;
    ++i;
  }
  return out;
}

/// a * b through the product kernel, into a fresh output.
inline Matrix Product(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  MatMulInto(a, b, &out);
  return out;
}

/// Forces a parallelism degree for the enclosing scope and restores the
/// GRGAD_THREADS / hardware default on destruction.
class ScopedDegree {
 public:
  explicit ScopedDegree(int degree) {
    internal::SetParallelismDegreeForTest(degree);
  }
  ~ScopedDegree() { internal::SetParallelismDegreeForTest(0); }

  ScopedDegree(const ScopedDegree&) = delete;
  ScopedDegree& operator=(const ScopedDegree&) = delete;
};

}  // namespace grgad::testing

#endif  // GRGAD_TESTS_KERNEL_TEST_UTIL_H_
