#include "src/graph/dynamic_graph.h"

#include <algorithm>
#include <atomic>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <string_view>
#include <utility>
#include <vector>

#include "src/util/atomic_io.h"
#include "src/util/parallel.h"

namespace grgad {

std::string FormatGraphMutation(const GraphMutation& m) {
  const char* kind =
      m.kind == GraphMutation::Kind::kAddEdge ? "add-edge" : "remove-edge";
  return std::string(kind) + " " + std::to_string(m.u) + " " +
         std::to_string(m.v);
}

bool ParseGraphMutation(const std::string& text, GraphMutation* out) {
  TokenScanner in(text);
  std::string_view kind;
  long long u = 0;
  long long v = 0;
  if (!in.Token(&kind) || !in.I64(&u) || !in.I64(&v) || !in.AtEnd()) {
    return false;
  }
  GraphMutation m;
  if (kind == "add-edge") {
    m.kind = GraphMutation::Kind::kAddEdge;
  } else if (kind == "remove-edge") {
    m.kind = GraphMutation::Kind::kRemoveEdge;
  } else {
    return false;
  }
  if (u < INT_MIN || u > INT_MAX || v < INT_MIN || v > INT_MAX) return false;
  m.u = static_cast<int>(u);
  m.v = static_cast<int>(v);
  *out = m;
  return true;
}

std::string SerializeGraphSnapshot(const Graph& g) {
  std::string out;
  out += "grgad_graph_version 1\n";
  out += "nodes " + std::to_string(g.num_nodes()) + "\n";
  out += "edges " + std::to_string(g.num_edges()) + "\n";
  out += "attr_dim " + std::to_string(g.attr_dim()) + "\n";
  g.ForEachEdge([&out](int u, int v) {
    out += "e " + std::to_string(u) + " " + std::to_string(v) + "\n";
  });
  if (g.has_attributes()) {
    // Raw-bit cells: trivially bit-exact and table-parsed on recovery
    // (decimal round-tripping needs a base-10 correction loop per cell),
    // and this block is most of the snapshot's bytes.
    const Matrix& attrs = g.attributes();
    for (size_t r = 0; r < attrs.rows(); ++r) {
      const double* row = attrs.RowPtr(r);
      for (size_t c = 0; c < attrs.cols(); ++c) {
        if (c > 0) out += ' ';
        out += FormatDoubleBits(row[c]);
      }
      out += '\n';
    }
  }
  return out;
}

Result<Graph> ParseGraphSnapshot(const std::string& text) {
  // TokenScanner, not istringstream: recovery parses one numeric token per
  // attribute cell, and stream extraction made the 8000-node serving
  // snapshot load slower than its incremental-refresh replay.
  TokenScanner in(text);
  long long version = 0;
  if (!in.Keyword("grgad_graph_version") || !in.I64(&version) ||
      version != 1) {
    return Status::DataLoss("graph snapshot: bad or missing version header");
  }
  long long nodes = 0;
  long long edges = 0;
  long long attr_dim = 0;
  if (!in.Keyword("nodes") || !in.I64(&nodes) || nodes < 0 ||
      nodes > INT_MAX) {
    return Status::DataLoss("graph snapshot: bad node count");
  }
  if (!in.Keyword("edges") || !in.I64(&edges) || edges < 0) {
    return Status::DataLoss("graph snapshot: bad edge count");
  }
  if (!in.Keyword("attr_dim") || !in.I64(&attr_dim) || attr_dim < 0) {
    return Status::DataLoss("graph snapshot: bad attr_dim");
  }
  GraphBuilder builder(static_cast<int>(nodes));
  for (long long i = 0; i < edges; ++i) {
    long long u = 0;
    long long v = 0;
    if (!in.Keyword("e") || !in.I64(&u) || !in.I64(&v)) {
      return Status::DataLoss("graph snapshot: truncated edge list");
    }
    if (u < 0 || v < 0 || u >= nodes || v >= nodes || u == v) {
      return Status::DataLoss("graph snapshot: edge endpoint out of range");
    }
    builder.AddEdge(static_cast<int>(u), static_cast<int>(v));
  }
  if (builder.num_edges() != edges) {
    return Status::DataLoss("graph snapshot: duplicate edges in edge list");
  }
  Matrix attrs;
  if (attr_dim > 0) {
    attrs = Matrix(static_cast<size_t>(nodes), static_cast<size_t>(attr_dim));
    // The attribute block is fixed-width by construction: FormatDoubleBits
    // cells are exactly 16 digits, so every cell lives at a computable
    // offset and the rows split across the worker pool with no scanning
    // pass (each worker writes only its own Matrix rows). These cells are
    // the bulk of the snapshot text, and recovery time is this parse at
    // GRGAD_THREADS=1 — token scanning here cost ~6x the decode itself.
    std::string_view rest = in.Remaining();
    if (!rest.empty() && rest.front() == '\n') rest.remove_prefix(1);
    const size_t row_width = static_cast<size_t>(attr_dim) * 17;
    const size_t need = row_width * static_cast<size_t>(nodes);
    if (rest.size() < need) {
      return Status::DataLoss("graph snapshot: truncated attribute rows");
    }
    std::atomic<bool> damaged{false};
    ParallelFor(static_cast<size_t>(nodes), 64, [&](size_t begin, size_t end) {
      for (size_t r = begin; r < end; ++r) {
        const char* p = rest.data() + r * row_width;
        double* row = attrs.RowPtr(r);
        for (long long c = 0; c < attr_dim; ++c) {
          uint64_t bits = 0;
          int bad = 0;
          for (int k = 0; k < 16; ++k) {
            const int d = HexNibble(p[k]);
            bad |= d;
            bits = (bits << 4) | static_cast<uint64_t>(d & 0xf);
          }
          const char sep = c + 1 == attr_dim ? '\n' : ' ';
          if (bad < 0 || p[16] != sep) {
            damaged.store(true, std::memory_order_relaxed);
            return;
          }
          std::memcpy(&row[c], &bits, sizeof(double));
          p += 17;
        }
      }
    });
    if (damaged.load()) {
      return Status::DataLoss("graph snapshot: truncated attribute rows");
    }
    TokenScanner tail(rest.substr(need));
    if (!tail.AtEnd()) {
      return Status::DataLoss("graph snapshot: trailing data after payload");
    }
  } else if (!in.AtEnd()) {
    return Status::DataLoss("graph snapshot: trailing data after payload");
  }
  return builder.Build(std::move(attrs));
}

void DynamicGraph::SpliceHalfEdge(int a, int b, bool add) {
  std::vector<int>& offsets = graph_.offsets_;
  std::vector<int>& adj = graph_.adj_;
  const auto pos = std::lower_bound(adj.begin() + offsets[a],
                                    adj.begin() + offsets[a + 1], b);
  if (add) {
    adj.insert(pos, b);
  } else {
    GRGAD_DCHECK(pos != adj.begin() + offsets[a + 1] && *pos == b);
    adj.erase(pos);
  }
  const int shift = add ? 1 : -1;
  for (size_t w = a + 1; w < offsets.size(); ++w) offsets[w] += shift;
}

bool DynamicGraph::AddEdge(int u, int v) {
  if (u < 0 || v < 0 || u >= num_nodes() || v >= num_nodes() || u == v ||
      HasEdge(u, v)) {
    return false;
  }
  SpliceHalfEdge(u, v, /*add=*/true);
  SpliceHalfEdge(v, u, /*add=*/true);
  return true;
}

bool DynamicGraph::RemoveEdge(int u, int v) {
  if (!HasEdge(u, v)) return false;
  SpliceHalfEdge(u, v, /*add=*/false);
  SpliceHalfEdge(v, u, /*add=*/false);
  return true;
}

}  // namespace grgad
