#include "src/graph/traversal_workspace.h"

#include <algorithm>
#include <atomic>

namespace grgad {

namespace {
std::atomic<uint64_t> g_workspace_heap_allocs{0};
}  // namespace

void TraversalWorkspace::NoteGrow() {
  g_workspace_heap_allocs.fetch_add(1, std::memory_order_relaxed);
}

uint64_t TraversalWorkspace::TotalHeapAllocs() {
  return g_workspace_heap_allocs.load(std::memory_order_relaxed);
}

void TraversalWorkspace::EnsureSize(int n) {
  GRGAD_CHECK_GE(n, 0);
  if (n <= cap_) return;
  NoteGrow();
  // Growing restarts the stamps (every prior result is invalidated anyway).
  stamp_.assign(n, 0);
  stamp2_.assign(n, 0);
  epoch_ = 0;
  hop.resize(n);
  parent.resize(n);
  dist.resize(n);
  order.reserve(n);
  heap.reserve(n);
  // Pre-create a default complement of cycle slots and DFS-stack capacity
  // so steady-state cycle searches at the default budgets never grow these
  // buffers, no matter which pooled workspace a chunk happens to lease.
  constexpr size_t kDefaultCycleSlots = 64;
  if (cycles.size() < kDefaultCycleSlots) cycles.resize(kDefaultCycleSlots);
  constexpr size_t kDefaultDepth = 65;  // Cycle lengths <= 64 plus the root.
  if (path.capacity() < kDefaultDepth) {
    path.reserve(kDefaultDepth);
    cursor.reserve(kDefaultDepth);
  }
  cap_ = n;
}

void TraversalWorkspace::Begin(int n) {
  EnsureSize(n);
  n_ = n;
  if (++epoch_ == 0) {
    // The 32-bit epoch wrapped (once per 2^32 traversals): hard-reset the
    // stamps so stale marks from 2^32 calls ago cannot alias.
    std::fill(stamp_.begin(), stamp_.end(), 0u);
    std::fill(stamp2_.begin(), stamp2_.end(), 0u);
    epoch_ = 1;
  }
  order.clear();
  heap.clear();
  num_cycles = 0;
}

std::vector<int>& TraversalWorkspace::AcquireCycleSlot() {
  if (num_cycles == cycles.size()) {
    NoteGrow();
    cycles.emplace_back();
  }
  std::vector<int>& slot = cycles[num_cycles++];
  slot.clear();
  return slot;
}

void TraversalWorkspace::PushHeap(double d, int v) {
  if (heap.size() == heap.capacity()) NoteGrow();
  heap.emplace_back(d, v);
  std::push_heap(heap.begin(), heap.end(),
                 std::greater<std::pair<double, int>>());
}

void TraversalWorkspace::ReserveHeap(size_t cap) {
  if (cap <= heap.capacity()) return;
  NoteGrow();
  heap.reserve(cap);
}

void TraversalWorkspace::ReserveDepth(size_t depth) {
  if (depth > path.capacity() || depth > cursor.capacity()) {
    NoteGrow();
    path.reserve(depth);
    cursor.reserve(depth);
  }
}

void TraversalWorkspacePool::Lease::Release() {
  if (pool_ != nullptr && ws_ != nullptr) {
    std::lock_guard<std::mutex> lock(pool_->mu_);
    pool_->free_.push_back(std::move(ws_));
  }
  pool_ = nullptr;
  ws_.reset();
}

TraversalWorkspacePool::Lease TraversalWorkspacePool::Acquire() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!free_.empty()) {
      std::unique_ptr<TraversalWorkspace> ws = std::move(free_.back());
      free_.pop_back();
      return Lease(this, std::move(ws));
    }
    ++total_;
  }
  return Lease(this, std::make_unique<TraversalWorkspace>());
}

void TraversalWorkspacePool::Prewarm(int count, int n, size_t heap_slots) {
  std::lock_guard<std::mutex> lock(mu_);
  while (total_ < count) {
    free_.push_back(std::make_unique<TraversalWorkspace>());
    ++total_;
  }
  for (auto& ws : free_) {
    ws->EnsureSize(n);
    if (heap_slots > 0) ws->ReserveHeap(heap_slots);
  }
}

TraversalWorkspacePool& TraversalWorkspacePool::Global() {
  static TraversalWorkspacePool* pool = new TraversalWorkspacePool();
  return *pool;
}

}  // namespace grgad
