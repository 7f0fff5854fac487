#include "src/data/io.h"

#include <algorithm>
#include <climits>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "src/util/atomic_io.h"

namespace grgad {

Status SaveEdgeList(const Graph& g, const std::string& path) {
  std::ofstream f(path, std::ios::out | std::ios::trunc);
  if (!f.is_open()) return Status::IoError("cannot open: " + path);
  f << "# grgad edge list: " << g.num_nodes() << " nodes, " << g.num_edges()
    << " edges\n";
  g.ForEachEdge([&f](int u, int v) { f << u << " " << v << "\n"; });
  if (!f.good()) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Result<Graph> LoadEdgeList(const std::string& path, int num_nodes) {
  std::ifstream f(path);
  if (!f.is_open()) return Status::IoError("cannot open: " + path);
  std::vector<std::pair<int, int>> edges;
  int max_id = -1;
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    TokenScanner in(line);
    long long u = 0;
    long long v = 0;
    // An id of INT_MAX or more leaves no room for the node count.
    if (!in.I64(&u) || !in.I64(&v) || !in.AtEnd() || u >= INT_MAX ||
        v >= INT_MAX) {
      return Status::InvalidArgument("bad edge line: " + line);
    }
    if (u < 0 || v < 0) {
      return Status::InvalidArgument("negative node id: " + line);
    }
    edges.emplace_back(static_cast<int>(u), static_cast<int>(v));
    max_id = std::max({max_id, edges.back().first, edges.back().second});
  }
  const int n = num_nodes > 0 ? num_nodes : max_id + 1;
  if (max_id >= n) {
    return Status::InvalidArgument("node id exceeds declared num_nodes");
  }
  GraphBuilder builder(std::max(n, 0));
  for (const auto& [u, v] : edges) builder.AddEdge(u, v);
  return builder.Build();
}

Status SaveAttributes(const Matrix& x, const std::string& path) {
  std::ofstream f(path, std::ios::out | std::ios::trunc);
  if (!f.is_open()) return Status::IoError("cannot open: " + path);
  f.precision(10);
  for (size_t i = 0; i < x.rows(); ++i) {
    for (size_t j = 0; j < x.cols(); ++j) {
      if (j > 0) f << ",";
      f << x(i, j);
    }
    f << "\n";
  }
  if (!f.good()) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

namespace {

/// The status for a file that failed to open: NotFound when it does not
/// exist (the optional dataset files), IoError for anything else.
Status OpenFailure(const std::string& path) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) && !ec) {
    return Status::NotFound("no such file: " + path);
  }
  return Status::IoError("cannot open: " + path);
}

}  // namespace

Result<Matrix> LoadAttributes(const std::string& path) {
  std::ifstream f(path);
  if (!f.is_open()) return OpenFailure(path);
  std::vector<std::vector<double>> rows;
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty()) continue;
    std::vector<double> row;
    std::istringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) {
      try {
        row.push_back(std::stod(cell));
      } catch (...) {
        return Status::InvalidArgument("bad numeric cell: " + cell);
      }
    }
    if (!rows.empty() && row.size() != rows[0].size()) {
      return Status::InvalidArgument("ragged attribute rows");
    }
    rows.push_back(std::move(row));
  }
  if (rows.empty()) return Matrix();
  Matrix x(rows.size(), rows[0].size());
  for (size_t i = 0; i < rows.size(); ++i) x.SetRow(i, rows[i]);
  return x;
}

namespace {

bool ParsePattern(const std::string& s, TopologyPattern* out) {
  if (s == "path") *out = TopologyPattern::kPath;
  else if (s == "tree") *out = TopologyPattern::kTree;
  else if (s == "cycle") *out = TopologyPattern::kCycle;
  else if (s == "mixed") *out = TopologyPattern::kMixed;
  else return false;
  return true;
}

}  // namespace

Status SaveGroups(const Dataset& dataset, const std::string& path) {
  if (dataset.group_patterns.size() != dataset.anomaly_groups.size()) {
    return Status::InvalidArgument("pattern/group count mismatch");
  }
  std::ofstream f(path, std::ios::out | std::ios::trunc);
  if (!f.is_open()) return Status::IoError("cannot open: " + path);
  for (size_t g = 0; g < dataset.anomaly_groups.size(); ++g) {
    f << ToString(dataset.group_patterns[g]) << ":";
    for (int v : dataset.anomaly_groups[g]) f << " " << v;
    f << "\n";
  }
  if (!f.good()) return Status::IoError("write failed: " + path);
  return Status::Ok();
}

Status LoadGroups(const std::string& path,
                  std::vector<std::vector<int>>* groups,
                  std::vector<TopologyPattern>* patterns) {
  GRGAD_CHECK(groups != nullptr && patterns != nullptr);
  groups->clear();
  patterns->clear();
  std::ifstream f(path);
  if (!f.is_open()) return OpenFailure(path);
  std::string line;
  while (std::getline(f, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t colon = line.find(':');
    if (colon == std::string::npos) {
      return Status::InvalidArgument("missing pattern tag: " + line);
    }
    TopologyPattern pattern;
    if (!ParsePattern(line.substr(0, colon), &pattern)) {
      return Status::InvalidArgument("unknown pattern: " +
                                     line.substr(0, colon));
    }
    std::vector<int> group;
    TokenScanner ids(std::string_view(line).substr(colon + 1));
    while (!ids.AtEnd()) {
      long long v = 0;
      if (!ids.I64(&v) || v < INT_MIN || v > INT_MAX) {
        return Status::InvalidArgument("bad node id in group line: " + line);
      }
      group.push_back(static_cast<int>(v));
    }
    if (group.empty()) {
      return Status::InvalidArgument("empty group line: " + line);
    }
    std::sort(group.begin(), group.end());
    groups->push_back(std::move(group));
    patterns->push_back(pattern);
  }
  return Status::Ok();
}

Status SaveDataset(const Dataset& dataset, const std::string& prefix) {
  GRGAD_RETURN_IF_ERROR(SaveEdgeList(dataset.graph, prefix + ".edges"));
  if (dataset.graph.has_attributes()) {
    GRGAD_RETURN_IF_ERROR(
        SaveAttributes(dataset.graph.attributes(), prefix + ".attrs"));
  }
  return SaveGroups(dataset, prefix + ".groups");
}

Result<Dataset> LoadDataset(const std::string& prefix,
                            const std::string& name) {
  Result<Graph> graph = LoadEdgeList(prefix + ".edges");
  if (!graph.ok()) return graph.status();
  Dataset out;
  out.name = name;
  out.graph = std::move(graph.value());
  // Attributes are optional: only a missing .attrs file is skipped.
  Result<Matrix> attrs = LoadAttributes(prefix + ".attrs");
  if (!attrs.ok() && attrs.status().code() != StatusCode::kNotFound) {
    return attrs.status();
  }
  if (attrs.ok() && !attrs.value().empty()) {
    if (attrs.value().rows() !=
        static_cast<size_t>(out.graph.num_nodes())) {
      return Status::InvalidArgument("attribute rows != node count");
    }
    out.graph.SetAttributes(std::move(attrs.value()));
  }
  // Labeled groups are optional too: a missing .groups file means none.
  const Status s =
      LoadGroups(prefix + ".groups", &out.anomaly_groups,
                 &out.group_patterns);
  if (!s.ok() && s.code() != StatusCode::kNotFound) return s;
  for (const std::vector<int>& group : out.anomaly_groups) {
    for (int v : group) {
      if (v < 0 || v >= out.graph.num_nodes()) {
        return Status::InvalidArgument(
            "group node id " + std::to_string(v) + " outside the " +
            std::to_string(out.graph.num_nodes()) + "-node graph");
      }
    }
  }
  return out;
}

}  // namespace grgad
