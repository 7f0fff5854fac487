// Attributed undirected graph in CSR form.
//
// All of grgad operates on simple undirected attributed graphs (transaction
// direction is dropped, as in the paper's symmetric-GCN pipelines). A Graph
// is immutable after construction through GraphBuilder; node attributes live
// in a dense n x d Matrix. Induced subgraphs (candidate groups, augmented
// views) carry a mapping back to original node ids.
#ifndef GRGAD_GRAPH_GRAPH_H_
#define GRGAD_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <unordered_set>
#include <utility>
#include <vector>

#include "src/tensor/matrix.h"
#include "src/util/status.h"

namespace grgad {

/// Immutable simple undirected graph with optional node attributes.
class Graph {
 public:
  /// Empty graph.
  Graph() = default;

  int num_nodes() const { return num_nodes_; }
  /// Number of undirected edges (each stored in both directions internally).
  int num_edges() const { return static_cast<int>(adj_.size() / 2); }

  /// Neighbors of v, ascending, no self-loops.
  std::span<const int> Neighbors(int v) const {
    GRGAD_DCHECK(v >= 0 && v < num_nodes_);
    return {adj_.data() + offsets_[v],
            static_cast<size_t>(offsets_[v + 1] - offsets_[v])};
  }

  int Degree(int v) const {
    GRGAD_DCHECK(v >= 0 && v < num_nodes_);
    return offsets_[v + 1] - offsets_[v];
  }

  /// True iff the undirected edge {u, v} exists. O(log deg(u)).
  bool HasEdge(int u, int v) const;

  /// Visits every undirected edge as visitor(u, v) with u < v, ascending
  /// by (u, v) — the edge order every per-edge array uses. Callers that
  /// index per-edge data (e.g. Bellman–Ford weights) keep their own running
  /// edge counter.
  template <typename Visitor>
  void ForEachEdge(Visitor&& visitor) const {
    for (int u = 0; u < num_nodes_; ++u) {
      for (int i = offsets_[u]; i < offsets_[u + 1]; ++i) {
        const int v = adj_[i];
        if (v > u) visitor(u, v);
      }
    }
  }

  /// First adjacency-slot index of v's neighbor row: Neighbors(v)[i] lives
  /// in slot AdjOffset(v) + i of the flat [0, num_adj_slots()) slot space.
  /// Lets per-directed-edge side tables (e.g. precomputed traversal costs)
  /// be indexed in O(1) while walking a neighbor row.
  int AdjOffset(int v) const {
    GRGAD_DCHECK(v >= 0 && v < num_nodes_);
    return offsets_[v];
  }
  /// Total directed adjacency slots (2 * num_edges()).
  int num_adj_slots() const { return static_cast<int>(adj_.size()); }

  /// Node attribute matrix (num_nodes x attr_dim); empty if unset.
  const Matrix& attributes() const { return attributes_; }
  size_t attr_dim() const { return attributes_.cols(); }
  bool has_attributes() const { return !attributes_.empty(); }

  /// Replaces the attribute matrix; row count must equal num_nodes().
  void SetAttributes(Matrix attributes);

  /// Subgraph induced by `nodes` (deduplicated, order preserved). The i-th
  /// node of the result corresponds to original id mapping()[i]; attributes
  /// are gathered when present.
  Graph InducedSubgraph(const std::vector<int>& nodes) const;

  /// For graphs produced by InducedSubgraph: original node id per local id.
  /// Empty for graphs built directly.
  const std::vector<int>& mapping() const { return mapping_; }

  /// Structural sanity check (CSR symmetry, sortedness, attr shape).
  Status Validate() const;

 private:
  friend class GraphBuilder;
  /// DynamicGraph splices each edge mutation into the Graph it owns in
  /// place (src/graph/dynamic_graph.cc) instead of paying a full rebuild.
  friend class DynamicGraph;

  int num_nodes_ = 0;
  std::vector<int> offsets_;  // length num_nodes_+1
  std::vector<int> adj_;      // both directions, sorted per row
  Matrix attributes_;
  std::vector<int> mapping_;
};

/// Accumulates edges and produces a Graph. Self-loops and duplicate edges
/// are silently dropped.
class GraphBuilder {
 public:
  /// Fixed node count; ids are [0, num_nodes).
  explicit GraphBuilder(int num_nodes);

  /// Adds the undirected edge {u, v}. Out-of-range ids are CHECK failures.
  void AddEdge(int u, int v);

  /// Number of distinct undirected edges added so far.
  int num_edges() const {
    EnsureSorted();
    return static_cast<int>(edges_.size());
  }
  int num_nodes() const { return num_nodes_; }

  /// True iff {u,v} was already added; convenience for builders that must
  /// avoid colliding injected edges. Expected O(1): the first call indexes
  /// every pair added so far in a hash set, and AddEdge keeps that index
  /// current from then on, so a generator that asks before every add stays
  /// linear. Builders that never ask pay nothing for the index.
  bool HasEdge(int u, int v) const;

  /// Finalizes into an immutable Graph; the builder may be reused afterwards.
  Graph Build(Matrix attributes = Matrix()) const;

 private:
  int num_nodes_;
  // Normalized (min, max) pairs; sorted and deduplicated on demand.
  std::vector<std::pair<int, int>> edges_;
  mutable bool sorted_ = true;
  // Every pair of edges_ as PairKey(u, v), once HasEdge has been asked.
  mutable std::unordered_set<uint64_t> index_;
  mutable bool indexed_ = false;
  void EnsureSorted() const;
};

}  // namespace grgad

#endif  // GRGAD_GRAPH_GRAPH_H_
