// Mutable graph layer for serving under live traffic.
//
// `Graph` is immutable to every consumer (traversals, the sampler,
// GraphSNN, the GCN operators): they all read frozen, sorted CSR rows. A
// DynamicGraph owns one such packed Graph and absorbs edge insertions and
// deletions from a running daemon by splicing each one straight into it:
// a sorted insert or erase in the two endpoint rows plus an offset shift,
// O(E) memmoves per mutation against an O(E log E) GraphBuilder pass. A
// packed CSR is uniquely determined by its edge set, so PackedView() is
// always bitwise identical (offsets, adjacency, attributes) to what
// GraphBuilder would build from the current edges, and anchor-score,
// refresh and snapshots read it directly.
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
#include <string>

#include "src/graph/graph.h"
#include "src/util/status.h"

namespace grgad {

/// One edge mutation, as the WAL logs it.
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

/// Mutation counters.
struct DynamicGraphStats {
  uint64_t compactions = 0;  ///< Compact() calls.
};

class DynamicGraph {
 public:
  DynamicGraph() = default;
  /// Starts from `base`: PackedView() before any mutation is a copy of it.
  explicit DynamicGraph(const Graph& base) : graph_(base) {}

  int num_nodes() const { return graph_.num_nodes(); }
  int num_edges() const { return graph_.num_edges(); }

  /// True iff the undirected edge {u, v} exists; false for invalid ids.
  bool HasEdge(int u, int v) const { return graph_.HasEdge(u, v); }

  /// Inserts the undirected edge {u, v}. False (and no change) for
  /// self-loops, out-of-range ids, or an edge already present.
  bool AddEdge(int u, int v);

  /// Removes the undirected edge {u, v}; false when absent or invalid.
  bool RemoveEdge(int u, int v);

  /// Counts a compaction. Mutations already land in the packed CSR, so
  /// there is nothing left to fold; the `compact` serve op and its WAL
  /// record keep their wire form and only move this counter.
  void Compact() { ++stats_.compactions; }

  /// Sets the compaction count a snapshot recorded (serve recovery).
  void RestoreCompactions(uint64_t count) { stats_.compactions = count; }

  /// The live graph: the canonical packed CSR of the current edge set. The
  /// reference lives as long as the DynamicGraph; row spans read from it
  /// are invalidated by the next mutation.
  const Graph& PackedView() const { return graph_; }

  DynamicGraphStats stats() const { return stats_; }

 private:
  /// Inserts b into a's sorted row (add; b absent) or erases it (!add; b
  /// present), then shifts every later row's offset.
  void SpliceHalfEdge(int a, int b, bool add);

  /// The only adjacency; it alone holds the node attributes, which edge
  /// mutations never touch.
  Graph graph_;
  DynamicGraphStats stats_;
};

}  // namespace grgad

#endif  // GRGAD_GRAPH_DYNAMIC_GRAPH_H_
