#include "src/sampling/dirty_tracker.h"

#include <algorithm>
#include <numeric>

namespace grgad {

bool IncrementalInvalidationSound(const GroupSamplerOptions& options) {
  return options.path_mode == PathSearchMode::kUnweighted;
}

int InvalidationRadius(const GroupSamplerOptions& options) {
  return std::max(options.pair_radius, options.cycle_max_len);
}

void AnchorDirtyTracker::Reset(const std::vector<int>& anchors, int radius,
                               int num_nodes) {
  radius_ = radius;
  all_dirty_ = false;
  dirty_count_ = 0;
  dirty_.assign(anchors.size(), 0);
  anchor_index_of_.assign(static_cast<size_t>(num_nodes), -1);
  for (size_t i = 0; i < anchors.size(); ++i) {
    // Out-of-range anchors (artifacts that disagree with the graph) can
    // never be ball-marked; they still refresh via the unprimed full pass.
    if (anchors[i] >= 0 && anchors[i] < num_nodes) {
      anchor_index_of_[anchors[i]] = static_cast<int>(i);
    }
  }
  stamp_.assign(static_cast<size_t>(num_nodes), 0);
  epoch_ = 0;
}

int AnchorDirtyTracker::MarkFromEdge(const Graph& g, int u, int v) {
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

void AnchorDirtyTracker::MarkAll() {
  all_dirty_ = true;
  std::fill(dirty_.begin(), dirty_.end(), 1);
  dirty_count_ = dirty_.size();
}

void AnchorDirtyTracker::MarkIndex(int anchor_index) {
  if (anchor_index < 0 ||
      static_cast<size_t>(anchor_index) >= dirty_.size()) {
    return;
  }
  if (!dirty_[anchor_index]) {
    dirty_[anchor_index] = 1;
    ++dirty_count_;
  }
}

std::vector<int> AnchorDirtyTracker::PeekDirtyIndices() const {
  std::vector<int> indices;
  indices.reserve(dirty_count_);
  if (all_dirty_) {
    indices.resize(dirty_.size());
    std::iota(indices.begin(), indices.end(), 0);
  } else {
    for (size_t i = 0; i < dirty_.size(); ++i) {
      if (dirty_[i]) indices.push_back(static_cast<int>(i));
    }
  }
  return indices;
}

std::vector<int> AnchorDirtyTracker::TakeDirtyIndices() {
  std::vector<int> indices;
  indices.reserve(dirty_count_);
  if (all_dirty_) {
    indices.resize(dirty_.size());
    std::iota(indices.begin(), indices.end(), 0);
  } else {
    for (size_t i = 0; i < dirty_.size(); ++i) {
      if (dirty_[i]) indices.push_back(static_cast<int>(i));
    }
  }
  std::fill(dirty_.begin(), dirty_.end(), 0);
  dirty_count_ = 0;
  all_dirty_ = false;
  return indices;
}

}  // namespace grgad
