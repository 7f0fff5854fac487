#include "src/util/parallel.h"

#include <algorithm>

#include "src/util/fault.h"
#include "src/util/thread_pool.h"

namespace grgad {

// ParallelismDegree() lives in thread_pool.cc next to the pool it sizes.

void ParallelFor(size_t n, size_t min_grain,
                 const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  if (min_grain == 0) min_grain = 1;  // A grain of 0 would divide by zero.
  const int degree = ParallelismDegree();
  if (degree <= 1 || n < min_grain * 2 || ThreadPool::InParallelRegion() ||
      // Injected dispatch fault: degrade this region to the serial inline
      // path. Kernel results are bitwise independent of the degree, so a
      // "failed" pool only costs time, never correctness.
      FaultInjector::Global().Fires("parallel/dispatch")) {
    body(0, n);
    return;
  }
  // Contiguous deterministic partition: a pure function of (n, min_grain,
  // degree), never of scheduling. Chunk c covers [c*chunk, min((c+1)*chunk, n)).
  const size_t num_chunks =
      std::min<size_t>(static_cast<size_t>(degree), n / min_grain + 1);
  const size_t chunk = (n + num_chunks - 1) / num_chunks;
  ThreadPool::Global().RunChunks(num_chunks, [&](size_t c) {
    const size_t begin = c * chunk;
    const size_t end = std::min(begin + chunk, n);
    if (begin < end) body(begin, end);
  });
}

void RunConcurrently(const std::vector<std::function<void()>>& tasks) {
  // RunChunks itself runs inline without workers, when nested, or when
  // another caller holds the pool.
  ThreadPool::Global().RunChunks(tasks.size(),
                                 [&tasks](size_t i) { tasks[i](); });
}

}  // namespace grgad
