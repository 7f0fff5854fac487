// Mutable graph layer for serving under live traffic.
//
// `Graph` is deliberately immutable: every consumer (traversals, the
// sampler, GraphSNN, the GCN operators) assumes frozen sorted CSR rows. A
// DynamicGraph keeps that world intact while absorbing edge insertions and
// deletions from a running daemon:
//
//  - Mutations apply to a slack CSR: each row owns a capacity range in one
//    flat adjacency array, entries stay sorted, and inserts/erases memmove
//    within the row's slack. When a row overflows its slack the whole CSR
//    regrows with fresh headroom (an amortized compaction event, counted in
//    stats). Neighbors/Degree/HasEdge/ForEachEdge expose exactly the
//    immutable Graph's contract — sorted spans, u < v edge streaming in
//    ForEachEdge order — so the templated algorithms (BuildBfsTree,
//    CyclesThrough, ShortestPath) run on a DynamicGraph unmodified.
//  - Every applied mutation is appended to a delta log, the record a
//    dirty-region tracker or replication consumer replays; Compact()
//    rebuilds uniform slack and truncates the log.
//  - PackedView() lazily compacts into a canonical immutable Graph —
//    bitwise identical (offsets, adjacency, attributes) to what
//    GraphBuilder would build from the current edge set — and caches it
//    until the next mutation. Consumers that demand a `const Graph&`
//    (GroupSampler, the training stages, SubgraphView) run on the view.
//
// The node set and the attributes are the base graph's, fixed for the
// graph's lifetime: node ids are stable handles held by resident artifacts
// and remote clients.
//
// Not thread-safe: the serving daemon mutates from its single executor
// thread, matching the one-request-at-a-time execution model.
#ifndef GRGAD_GRAPH_DYNAMIC_GRAPH_H_
#define GRGAD_GRAPH_DYNAMIC_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/graph/graph.h"
#include "src/util/status.h"

namespace grgad {

/// One applied edge mutation, in application order (the delta log entry).
struct GraphMutation {
  enum class Kind { kAddEdge, kRemoveEdge };
  Kind kind = Kind::kAddEdge;
  int u = -1;  ///< One endpoint.
  int v = -1;  ///< The other endpoint.
};

/// Wire form of one mutation: `<kind> <u> <v>` with kind add-edge or
/// remove-edge (the WAL record payload).
std::string FormatGraphMutation(const GraphMutation& m);

/// Parses FormatGraphMutation output; false on any malformed input (extra
/// tokens, unknown kind, non-integer endpoints).
bool ParseGraphMutation(const std::string& text, GraphMutation* out);

/// Durable text form of a packed CSR: header (version, node/edge counts,
/// attr_dim), the edge list in ForEachEdge order, then one exact-double
/// attribute row per node. ParseGraphSnapshot rebuilds through GraphBuilder,
/// so the round trip is bitwise identical (offsets, adjacency, attributes)
/// to the serialized graph.
std::string SerializeGraphSnapshot(const Graph& g);
Result<Graph> ParseGraphSnapshot(const std::string& text);

/// Mutation/compaction counters (monotonic except pending_log).
struct DynamicGraphStats {
  uint64_t edges_added = 0;
  uint64_t edges_removed = 0;
  uint64_t regrows = 0;       ///< Slack overflows that forced a CSR rebuild.
  uint64_t compactions = 0;   ///< Explicit Compact() calls.
  size_t pending_log = 0;     ///< Delta-log entries since the last Compact().
};

class DynamicGraph {
 public:
  /// Per-row slack reserved on regrow/compaction; absorbs that many inserts
  /// per row before the next rebuild.
  static constexpr int kRowSlack = 4;

  DynamicGraph() = default;
  /// Starts from `base`; PackedView() before any mutation is bitwise
  /// identical to it (modulo the subgraph mapping, which a mutable host
  /// graph does not carry).
  explicit DynamicGraph(const Graph& base);

  // ---- the immutable Graph's read contract ----------------------------------

  int num_nodes() const { return num_nodes_; }
  int num_edges() const { return num_edges_; }

  /// Neighbors of v, ascending, no self-loops (live view — invalidated by
  /// the next mutation).
  std::span<const int> Neighbors(int v) const {
    GRGAD_DCHECK(v >= 0 && v < num_nodes_);
    return {adj_.data() + row_start_[v], static_cast<size_t>(degree_[v])};
  }

  int Degree(int v) const {
    GRGAD_DCHECK(v >= 0 && v < num_nodes_);
    return degree_[v];
  }

  /// True iff the undirected edge {u, v} exists. O(log deg(u)).
  bool HasEdge(int u, int v) const;

  /// Visits every undirected edge as visitor(u, v) with u < v, in exactly
  /// the packed Graph's ForEachEdge order.
  template <typename Visitor>
  void ForEachEdge(Visitor&& visitor) const {
    for (int u = 0; u < num_nodes_; ++u) {
      const int* row = adj_.data() + row_start_[u];
      for (int i = 0; i < degree_[u]; ++i) {
        if (row[i] > u) visitor(u, row[i]);
      }
    }
  }

  // ---- mutations ------------------------------------------------------------

  /// Inserts the undirected edge {u, v}. False (and no log entry) for
  /// self-loops, out-of-range ids, or an edge already present.
  bool AddEdge(int u, int v);

  /// Removes the undirected edge {u, v}; false when absent or invalid.
  bool RemoveEdge(int u, int v);

  // ---- compaction + packed view ---------------------------------------------

  /// Rebuilds the slack CSR with uniform kRowSlack headroom, truncates the
  /// delta log, and refreshes the packed view. Cheap O(n + E).
  void Compact();

  /// Canonical immutable view of the current edge set — bitwise identical
  /// to GraphBuilder::Build over the same edges and attributes. Lazily
  /// maintained: pending mutations are spliced into the cached packed CSR
  /// in O(E) memmoves per mutation; the reference is invalidated by the
  /// next mutation or Compact().
  const Graph& PackedView() const;

  /// Delta log since the last Compact(), in application order.
  const std::vector<GraphMutation>& DeltaLog() const { return log_; }

  DynamicGraphStats stats() const {
    DynamicGraphStats s = stats_;
    s.pending_log = log_.size();
    return s;
  }

  /// Structural sanity check over the slack CSR (sorted rows, symmetry,
  /// degree/capacity consistency).
  Status Validate() const;

 private:
  /// Row capacity (degree + slack) of v.
  int RowCapacity(int v) const { return row_start_[v + 1] - row_start_[v]; }

  /// Inserts w into v's sorted row; regrows the CSR when the row is full.
  void InsertHalfEdge(int v, int w);
  /// Erases w from v's sorted row (must be present).
  void EraseHalfEdge(int v, int w);
  /// Rebuilds adj_/row_start_ with `slack` extra slots per row.
  void Regrow(int slack);
  /// Splices one logged edge mutation into the cached packed CSR.
  void ApplyPackedEdgeDelta(const GraphMutation& m) const;

  int num_nodes_ = 0;
  int num_edges_ = 0;
  std::vector<int> row_start_;  ///< Length num_nodes_+1: row capacity starts.
  std::vector<int> degree_;     ///< Live entries per row.
  std::vector<int> adj_;        ///< Capacity slots; live prefix sorted per row.
  std::vector<GraphMutation> log_;
  DynamicGraphStats stats_;

  /// Cached canonical view; it alone holds the node attributes, which edge
  /// mutations never touch.
  mutable Graph packed_;
  mutable size_t packed_applied_ = 0;  ///< log_ entries reflected in packed_.
};

}  // namespace grgad

#endif  // GRGAD_GRAPH_DYNAMIC_GRAPH_H_
