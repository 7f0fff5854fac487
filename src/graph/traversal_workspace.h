// Per-worker traversal workspace for the candidate stage (Alg. 1 / Alg. 2).
//
// The seed graph algorithms allocate fresh O(n) dist/parent/visited vectors
// on every call — per anchor, per pair, per cycle search. A
// TraversalWorkspace owns those buffers once and replaces the O(n) clears
// with an epoch stamp: Begin() bumps a 32-bit epoch, and a node counts as
// visited only when its stamp equals the current epoch, so starting a new
// traversal is O(1) no matter how large the graph is. The workspace-backed
// algorithm variants in src/graph/algorithms.h produce element-for-element
// identical results to the allocating seed implementations
// (tests/traversal_equivalence_test.cc pins this on random graphs).
//
// Workspaces are reused across calls through TraversalWorkspacePool: the
// parallel GroupSampler leases one set per worker chunk and returns it, so
// after Prewarm() a steady-state sampling call performs zero workspace heap
// allocations (TotalHeapAllocs() counts buffer growth; micro_benchmarks
// asserts the steady-state delta is 0).
#ifndef GRGAD_GRAPH_TRAVERSAL_WORKSPACE_H_
#define GRGAD_GRAPH_TRAVERSAL_WORKSPACE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "src/util/check.h"

namespace grgad {

/// Marker for unreachable nodes in hop-distance results (also re-exported
/// through src/graph/algorithms.h, its historical home).
inline constexpr int kUnreachable = std::numeric_limits<int>::max();

/// Reusable per-worker buffers for one graph traversal at a time.
///
/// Contract: Begin(n) starts a traversal over an n-node graph and
/// invalidates every result of the previous one (marks, Hop/Dist/Parent,
/// Order, Cycles). The raw buffers are public because the workspace-backed
/// algorithms in algorithms.h write them directly; read results through the
/// stamped accessors, which report unreached defaults for unvisited nodes.
class TraversalWorkspace {
 public:
  TraversalWorkspace() = default;
  TraversalWorkspace(const TraversalWorkspace&) = delete;
  TraversalWorkspace& operator=(const TraversalWorkspace&) = delete;

  /// Grows every per-node buffer for an n-node graph without starting a
  /// traversal (resets the stamps when it actually grows). O(n) when
  /// growing, O(1) otherwise.
  void EnsureSize(int n);

  /// Prepares for one traversal over an n-node graph: sizes buffers, starts
  /// a fresh visited epoch, clears Order()/Cycles(). Amortized O(1).
  void Begin(int n);

  /// Node count of the traversal started by the last Begin().
  int size() const { return n_; }

  // --- Epoch-stamped visited marks (primary + a secondary set, e.g. the
  // cycle DFS's on-path flags or subset membership). ---
  bool Seen(int v) const { return stamp_[v] == epoch_; }
  void Mark(int v) { stamp_[v] = epoch_; }
  bool Seen2(int v) const { return stamp2_[v] == epoch_; }
  void Mark2(int v) { stamp2_[v] = epoch_; }
  void Unmark2(int v) { stamp2_[v] = epoch_ - 1; }

  // --- Stamped per-node results (valid only where Seen()). ---
  int Hop(int v) const { return Seen(v) ? hop[v] : kUnreachable; }
  double Dist(int v) const {
    return Seen(v) ? dist[v] : std::numeric_limits<double>::infinity();
  }
  int Parent(int v) const { return Seen(v) ? parent[v] : -1; }

  /// Visit order of the last BFS-tree traversal (root first).
  std::span<const int> Order() const { return {order.data(), order.size()}; }

  /// Cycle-enumeration output of the last CyclesThrough traversal; inner
  /// vectors keep their capacity across traversals.
  std::span<const std::vector<int>> Cycles() const {
    return {cycles.data(), num_cycles};
  }
  /// Next reusable cycle slot (cleared); bumps num_cycles.
  std::vector<int>& AcquireCycleSlot();

  /// Min-heap push for Dijkstra (tracks buffer growth for the alloc stats).
  void PushHeap(double d, int v);

  /// Pre-reserves the Dijkstra heap (an upper bound on total pushes is
  /// 1 + num_adj_slots) so steady-state runs never grow it mid-traversal.
  void ReserveHeap(size_t cap);

  /// Pre-reserves the cycle-DFS stack buffers for paths up to `depth`.
  void ReserveDepth(size_t depth);

  // Raw buffers. Per-node arrays are sized by EnsureSize/Begin; the DFS
  // stack buffers (path/cursor) grow on demand via the algorithms.
  std::vector<int> hop;                     ///< BFS depths / hop distances.
  std::vector<int> parent;                  ///< Traversal back-pointers.
  std::vector<int> order;                   ///< BFS queue == visit order.
  std::vector<double> dist;                 ///< Weighted distances.
  std::vector<std::pair<double, int>> heap; ///< Dijkstra priority queue.
  std::vector<int> path;                    ///< Cycle-DFS node stack.
  std::vector<size_t> cursor;               ///< Cycle-DFS neighbor cursors.
  std::vector<std::vector<int>> cycles;     ///< Cycle output slots.
  size_t num_cycles = 0;

  /// Process-wide count of workspace buffer-growth events (any instance).
  /// Steady-state traversals over already-seen graph sizes add nothing;
  /// micro_benchmarks reports the steady-state delta (must be 0).
  static uint64_t TotalHeapAllocs();

 private:
  static void NoteGrow();

  int n_ = 0;    ///< Current traversal size.
  int cap_ = 0;  ///< Buffer capacity (max n ever seen).
  uint32_t epoch_ = 0;
  std::vector<uint32_t> stamp_;
  std::vector<uint32_t> stamp2_;
};

/// Mutex-guarded free list of TraversalWorkspaces shared by parallel
/// workers. Leases return their workspace on destruction, so pooled buffers
/// persist across sampling calls. Prewarm (with no leases outstanding)
/// bounds the pool and pre-grows every instance, making steady-state
/// acquisition allocation-free and deterministic regardless of how chunks
/// land on pool threads.
class TraversalWorkspacePool {
 public:
  /// Move-only handle to a pooled workspace.
  class Lease {
   public:
    Lease() = default;
    Lease(TraversalWorkspacePool* pool,
          std::unique_ptr<TraversalWorkspace> ws)
        : pool_(pool), ws_(std::move(ws)) {}
    ~Lease() { Release(); }
    Lease(Lease&& other) noexcept
        : pool_(other.pool_), ws_(std::move(other.ws_)) {
      other.pool_ = nullptr;
    }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        Release();
        pool_ = other.pool_;
        ws_ = std::move(other.ws_);
        other.pool_ = nullptr;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;

    TraversalWorkspace* get() const { return ws_.get(); }
    TraversalWorkspace& operator*() const { return *ws_; }
    TraversalWorkspace* operator->() const { return ws_.get(); }

   private:
    void Release();
    TraversalWorkspacePool* pool_ = nullptr;
    std::unique_ptr<TraversalWorkspace> ws_;
  };

  /// Takes a workspace from the free list (creating one only when the pool
  /// is empty — never after a sufficient Prewarm).
  Lease Acquire();

  /// Ensures at least `count` workspaces exist in total, each grown for
  /// n-node graphs (and, when heap_slots > 0, with that much Dijkstra-heap
  /// capacity). Call with no leases outstanding (e.g. at the top of a
  /// sampling call, before fanning out) — it makes the steady state
  /// deterministic regardless of which worker leases which workspace.
  void Prewarm(int count, int n, size_t heap_slots = 0);

  /// Process-wide pool (workspaces survive across sampling calls).
  static TraversalWorkspacePool& Global();

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<TraversalWorkspace>> free_;
  int total_ = 0;
};

}  // namespace grgad

#endif  // GRGAD_GRAPH_TRAVERSAL_WORKSPACE_H_
