#include "src/graph/subgraph_view.h"

#include <algorithm>

namespace grgad {

void SubgraphView::Reset(const Graph& host, std::span<const int> nodes) {
  host_ = &host;
  if (remap_stamp_.size() < static_cast<size_t>(host.num_nodes())) {
    remap_stamp_.assign(host.num_nodes(), 0);
    remap_.resize(host.num_nodes());
    remap_epoch_ = 0;
  }
  if (++remap_epoch_ == 0) {
    std::fill(remap_stamp_.begin(), remap_stamp_.end(), 0u);
    remap_epoch_ = 1;
  }
  // Deduplicate preserving first-occurrence order — the exact local-id
  // assignment of Graph::InducedSubgraph.
  nodes_.clear();
  for (int v : nodes) {
    GRGAD_CHECK(v >= 0 && v < host.num_nodes());
    if (remap_stamp_[v] != remap_epoch_) {
      remap_stamp_[v] = remap_epoch_;
      remap_[v] = static_cast<int>(nodes_.size());
      nodes_.push_back(v);
    }
  }
  const int n = static_cast<int>(nodes_.size());
  offsets_.resize(n + 1);
  adj_.clear();
  for (int i = 0; i < n; ++i) {
    offsets_[i] = static_cast<int>(adj_.size());
    for (int w : host.Neighbors(nodes_[i])) {
      if (remap_stamp_[w] == remap_epoch_) adj_.push_back(remap_[w]);
    }
    // Host rows ascend by global id; the materialized CSR sorts by local
    // id. The two agree when the node list is sorted (every sampler
    // candidate is); otherwise sort the row to match.
    const auto row_begin = adj_.begin() + offsets_[i];
    if (!std::is_sorted(row_begin, adj_.end())) {
      std::sort(row_begin, adj_.end());
    }
  }
  offsets_[n] = static_cast<int>(adj_.size());
}

}  // namespace grgad
