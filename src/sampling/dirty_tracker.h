// Dirty-region tracking for incremental candidate refresh.
//
// The locality argument (ARISE's substructure view, NK-GAD's local
// neighborhood updates): with hop-count path search, one anchor's candidate
// groups are a function of the adjacency rows within a bounded hop radius
// of the anchor — the BFS tree stops at pair_radius, and the cycle DFS
// walks simple paths of at most cycle_max_len edges. An edge mutation
// {u, v} only rewrites the adjacency rows of u and v, so the only anchors
// whose candidates can change are those with u or v inside their radius-R
// ball, R = max(pair_radius, cycle_max_len) — one hop conservative, never
// unsound. The tracker marks those anchors dirty with an epoch-stamped
// multi-source BFS (the traversal-workspace trick: no per-mutation
// clearing), and the refresh stage re-samples exactly the marked set.
//
// Mark on the right side of the mutation: additions mark AFTER applying
// (distances only shrink, so the post-mutation ball covers the pre-mutation
// one through the new edge); removals mark BEFORE applying (distances only
// grow once the edge is gone).
//
// Weighted path modes (kAttributeDistance, kGraphSnnWeighted) are NOT
// radius-local — Dijkstra/Bellman–Ford distances and GraphSNN weights read
// unboundedly far — so IncrementalInvalidationSound() is false for them and
// callers must MarkAll() (a full refresh: slower, still exact).
#ifndef GRGAD_SAMPLING_DIRTY_TRACKER_H_
#define GRGAD_SAMPLING_DIRTY_TRACKER_H_

#include <cstdint>
#include <vector>

#include "src/sampling/group_sampler.h"

namespace grgad {

/// True when per-anchor candidate output is a radius-local function of the
/// graph, i.e. ball-based invalidation is exact. Only hop-count path search
/// qualifies; the weighted modes must fall back to MarkAll().
bool IncrementalInvalidationSound(const GroupSamplerOptions& options);

/// The hop radius bounding what one anchor's candidates can read:
/// max(pair_radius, cycle_max_len).
int InvalidationRadius(const GroupSamplerOptions& options);

/// Epoch-stamped dirty set over a fixed anchor list. Not thread-safe; owned
/// by the serving daemon's single executor thread next to the DynamicGraph.
class AnchorDirtyTracker {
 public:
  /// (Re)binds the tracker to an anchor list over a graph of `num_nodes`
  /// nodes, clearing all marks. `radius` from InvalidationRadius().
  void Reset(const std::vector<int>& anchors, int radius, int num_nodes);

  /// Marks every anchor whose radius ball contains u or v (multi-source BFS
  /// from both endpoints on `g` — the post-add or pre-remove graph, see the
  /// header comment). Returns the invalidation fanout: the number of
  /// anchors inside the ball, whether or not they were already dirty.
  template <typename G>
  int MarkFromEdge(const G& g, int u, int v) {
    // Edge mutations never add nodes: the graph keeps Reset()'s node set.
    GRGAD_DCHECK(static_cast<size_t>(g.num_nodes()) == stamp_.size());
    if (++epoch_ == 0) {  // Stamp wrap: invalidate all stamps once.
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
    int fanout = 0;
    queue_.clear();
    depths_.clear();
    auto visit = [&](int node, int d) {
      if (node < 0 || node >= g.num_nodes() || stamp_[node] == epoch_) return;
      stamp_[node] = epoch_;
      queue_.push_back(node);
      depths_.push_back(d);
      const int ai = anchor_index_of_[node];
      if (ai >= 0) {
        ++fanout;
        if (!dirty_[ai]) {
          dirty_[ai] = 1;
          ++dirty_count_;
        }
      }
    };
    visit(u, 0);
    visit(v, 0);
    for (size_t head = 0; head < queue_.size(); ++head) {
      const int node = queue_[head];
      const int d = depths_[head];
      if (d == radius_) continue;
      for (int w : g.Neighbors(node)) visit(w, d + 1);
    }
    return fanout;
  }

  /// Marks every anchor dirty (the weighted-mode fallback, and the recovery
  /// path after an aborted refresh).
  void MarkAll();

  bool all_dirty() const { return all_dirty_; }
  size_t dirty_count() const { return dirty_count_; }
  size_t num_anchors() const { return dirty_.size(); }

  /// Marks one anchor by its index into the Reset() anchor list (snapshot
  /// restore: re-arming marks recorded by PeekDirtyIndices). Out-of-range
  /// indices are ignored.
  void MarkIndex(int anchor_index);

  /// Returns the dirty anchor indices (ascending, into the Reset() anchor
  /// list) and clears every mark.
  std::vector<int> TakeDirtyIndices();

  /// TakeDirtyIndices without the clear — the serializable view of the
  /// current dirty set for snapshots.
  std::vector<int> PeekDirtyIndices() const;

 private:
  int radius_ = 0;
  bool all_dirty_ = false;
  size_t dirty_count_ = 0;
  std::vector<uint8_t> dirty_;        ///< Per anchor index.
  std::vector<int> anchor_index_of_;  ///< Per node; -1 = not an anchor.
  std::vector<uint32_t> stamp_;       ///< Per-node BFS visit epoch.
  std::vector<int> queue_;            ///< BFS frontier (node ids).
  std::vector<int> depths_;           ///< Depth of queue_[i].
  uint32_t epoch_ = 0;
};

}  // namespace grgad

#endif  // GRGAD_SAMPLING_DIRTY_TRACKER_H_
