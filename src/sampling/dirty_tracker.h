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
// grow once the edge is gone). The serving daemon passes its live graph,
// DynamicGraph::PackedView(), after the splice for an add and before it
// for a remove.
//
// Weighted path modes (kAttributeDistance, kGraphSnnWeighted) are NOT
// radius-local — Dijkstra/Bellman–Ford distances and GraphSNN weights read
// unboundedly far — so IncrementalInvalidationSound() is false for them and
// callers must MarkAll() (a full refresh: slower, still exact).
#ifndef GRGAD_SAMPLING_DIRTY_TRACKER_H_
#define GRGAD_SAMPLING_DIRTY_TRACKER_H_

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"
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
/// by the serving daemon's single executor thread next to its live graph.
class AnchorDirtyTracker {
 public:
  /// (Re)binds the tracker to an anchor list over a graph of `num_nodes`
  /// nodes, clearing all marks. `radius` from InvalidationRadius().
  void Reset(const std::vector<int>& anchors, int radius, int num_nodes);

  /// Marks every anchor whose radius ball contains u or v (multi-source BFS
  /// from both endpoints on `g` — the post-add or pre-remove graph, see the
  /// header comment). Returns the invalidation fanout: the number of
  /// anchors inside the ball, whether or not they were already dirty.
  int MarkFromEdge(const Graph& g, int u, int v);

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
