// Tiny data-parallel helper for the dense-matmul hot path.
//
// grgad's training loops are dominated by feature-matrix products; this
// splits a [0, n) range across a small fixed set of std::threads. The split
// is deterministic (contiguous chunks), so parallel results are bitwise
// independent of thread scheduling for disjoint-output loops.
#ifndef GRGAD_UTIL_PARALLEL_H_
#define GRGAD_UTIL_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <vector>

namespace grgad {

/// Number of worker threads used by ParallelFor (>= 1). Initialized from
/// hardware_concurrency, overridable via GRGAD_THREADS or
/// SetParallelismDegree.
int ParallelismDegree();

/// Forces ParallelismDegree() to `degree` (>= 1) and rebuilds the worker
/// pool to match; takes precedence over GRGAD_THREADS. Intended for startup
/// configuration (e.g. the `grgad run --threads` flag) — must not be called
/// while parallel regions are in flight. Kernel results are bitwise
/// independent of the degree, so this only changes resource usage.
void SetParallelismDegree(int degree);

/// Runs body(begin, end) over a contiguous partition of [0, n).
///
/// Falls back to a single inline call when n < min_grain or only one thread
/// is available. `body` must write disjoint outputs per sub-range.
void ParallelFor(size_t n, size_t min_grain,
                 const std::function<void(size_t, size_t)>& body);

/// Runs each task once across the pool's lanes. A lane that finishes takes
/// the next task not yet started, in list order, so put long tasks first.
/// Runs them in order on the calling thread when only one thread is
/// available or from inside a parallel region (ParallelFor inside a task
/// also runs inline). Tasks must write disjoint outputs.
void RunConcurrently(const std::vector<std::function<void()>>& tasks);

}  // namespace grgad

#endif  // GRGAD_UTIL_PARALLEL_H_
