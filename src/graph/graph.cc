#include "src/graph/graph.h"

#include <algorithm>
#include <unordered_map>

namespace grgad {

bool Graph::HasEdge(int u, int v) const {
  if (u < 0 || v < 0 || u >= num_nodes_ || v >= num_nodes_) return false;
  auto nb = Neighbors(u);
  return std::binary_search(nb.begin(), nb.end(), v);
}

void Graph::SetAttributes(Matrix attributes) {
  GRGAD_CHECK_EQ(attributes.rows(), static_cast<size_t>(num_nodes_));
  attributes_ = std::move(attributes);
}

Graph Graph::InducedSubgraph(const std::vector<int>& nodes) const {
  // Deduplicate preserving first-occurrence order.
  std::vector<int> uniq;
  uniq.reserve(nodes.size());
  std::unordered_map<int, int> local;
  local.reserve(nodes.size());
  for (int v : nodes) {
    GRGAD_CHECK(v >= 0 && v < num_nodes_);
    if (local.emplace(v, static_cast<int>(uniq.size())).second) {
      uniq.push_back(v);
    }
  }
  GraphBuilder builder(static_cast<int>(uniq.size()));
  for (size_t i = 0; i < uniq.size(); ++i) {
    for (int w : Neighbors(uniq[i])) {
      auto it = local.find(w);
      if (it != local.end() && static_cast<int>(i) < it->second) {
        builder.AddEdge(static_cast<int>(i), it->second);
      }
    }
  }
  Matrix sub_attr;
  if (has_attributes()) sub_attr = attributes_.GatherRows(uniq);
  Graph out = builder.Build(std::move(sub_attr));
  // Compose mappings so nested induced subgraphs still refer to the root ids.
  if (mapping_.empty()) {
    out.mapping_ = std::move(uniq);
  } else {
    out.mapping_.reserve(uniq.size());
    for (int v : uniq) out.mapping_.push_back(mapping_[v]);
  }
  return out;
}

Status Graph::Validate() const {
  if (offsets_.size() != static_cast<size_t>(num_nodes_) + 1) {
    return Status::Internal("offsets size mismatch");
  }
  for (int v = 0; v < num_nodes_; ++v) {
    auto nb = Neighbors(v);
    for (size_t i = 0; i < nb.size(); ++i) {
      if (nb[i] < 0 || nb[i] >= num_nodes_) {
        return Status::Internal("neighbor id out of range");
      }
      if (nb[i] == v) return Status::Internal("self-loop present");
      if (i > 0 && nb[i] <= nb[i - 1]) {
        return Status::Internal("row not strictly sorted");
      }
      if (!HasEdge(nb[i], v)) return Status::Internal("asymmetric edge");
    }
  }
  if (has_attributes() &&
      attributes_.rows() != static_cast<size_t>(num_nodes_)) {
    return Status::Internal("attribute row count mismatch");
  }
  return Status::Ok();
}

GraphBuilder::GraphBuilder(int num_nodes) : num_nodes_(num_nodes) {
  GRGAD_CHECK_GE(num_nodes, 0);
}

namespace {

/// Hash key of the normalized pair (u, v), u < v, both non-negative.
uint64_t PairKey(int u, int v) {
  return (static_cast<uint64_t>(u) << 32) | static_cast<uint32_t>(v);
}

}  // namespace

void GraphBuilder::AddEdge(int u, int v) {
  GRGAD_CHECK(u >= 0 && u < num_nodes_);
  GRGAD_CHECK(v >= 0 && v < num_nodes_);
  if (u == v) return;
  if (u > v) std::swap(u, v);
  if (indexed_ && !index_.insert(PairKey(u, v)).second) return;
  edges_.emplace_back(u, v);
  sorted_ = false;
}

void GraphBuilder::EnsureSorted() const {
  if (sorted_) return;
  auto& edges = const_cast<std::vector<std::pair<int, int>>&>(edges_);
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  sorted_ = true;
}

bool GraphBuilder::HasEdge(int u, int v) const {
  if (u == v) return false;
  if (u > v) std::swap(u, v);
  if (!indexed_) {
    index_.reserve(edges_.size());
    for (const auto& [a, b] : edges_) index_.insert(PairKey(a, b));
    indexed_ = true;
  }
  return index_.count(PairKey(u, v)) != 0;
}

Graph GraphBuilder::Build(Matrix attributes) const {
  EnsureSorted();
  Graph g;
  g.num_nodes_ = num_nodes_;
  g.offsets_.assign(num_nodes_ + 1, 0);
  for (const auto& [u, v] : edges_) {
    ++g.offsets_[u + 1];
    ++g.offsets_[v + 1];
  }
  for (int i = 0; i < num_nodes_; ++i) g.offsets_[i + 1] += g.offsets_[i];
  g.adj_.resize(edges_.size() * 2);
  std::vector<int> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const auto& [u, v] : edges_) {
    g.adj_[cursor[u]++] = v;
    g.adj_[cursor[v]++] = u;
  }
  for (int v = 0; v < num_nodes_; ++v) {
    std::sort(g.adj_.begin() + g.offsets_[v], g.adj_.begin() + g.offsets_[v + 1]);
  }
  if (!attributes.empty()) {
    GRGAD_CHECK_EQ(attributes.rows(), static_cast<size_t>(num_nodes_));
    g.attributes_ = std::move(attributes);
  }
  return g;
}

}  // namespace grgad
