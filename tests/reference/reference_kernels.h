// Serial reference kernels: the seed implementations, unblocked and
// single-threaded, kept verbatim as the correctness/determinism oracle for
// the optimized kernels in matrix.cc / sparse.cc and as the "before" side of
// bench/micro_benchmarks' JSON report. They live in the test-only library
// grgad_reference (tests and micro_benchmarks link it; the grgad library
// does not), so product code cannot call them.
#ifndef GRGAD_TESTS_REFERENCE_REFERENCE_KERNELS_H_
#define GRGAD_TESTS_REFERENCE_REFERENCE_KERNELS_H_

#include <functional>

#include "src/tensor/matrix.h"
#include "src/tensor/sparse.h"

namespace grgad::reference {

/// Serial i-k-j product a(m x k) * b(k x n); the seed MatMul loop.
Matrix MatMul(const Matrix& a, const Matrix& b);

/// Serial a(m x k) * b(n x k)^T via per-element dot products.
Matrix MatMulTransposeB(const Matrix& a, const Matrix& b);

/// Serial a(k x m)^T * b(k x n) via rank-1 accumulation over k.
Matrix MatMulTransposeA(const Matrix& a, const Matrix& b);

/// Serial unblocked transpose.
Matrix Transpose(const Matrix& a);

/// Serial CSR row-gather s * dense.
Matrix Spmm(const SparseMatrix& s, const Matrix& dense);

/// Serial CSR scatter s^T * dense; the seed autograd backward kernel.
Matrix SpmmTransposeThis(const SparseMatrix& s, const Matrix& dense);

/// Serial elementwise map through std::function — the seed Matrix::Map with
/// its per-element indirect call, frozen as the bench baseline.
Matrix Map(const Matrix& a, const std::function<double(double)>& f);

}  // namespace grgad::reference

#endif  // GRGAD_TESTS_REFERENCE_REFERENCE_KERNELS_H_
