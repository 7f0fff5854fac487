// Dataset serialization: edge lists, attribute CSVs, and group files, so
// users can run grgad on their own graphs and round-trip the synthetic ones.
#ifndef GRGAD_DATA_IO_H_
#define GRGAD_DATA_IO_H_

#include <string>

#include "src/data/dataset.h"
#include "src/util/status.h"

namespace grgad {

/// Writes "u v" lines (undirected, one per edge).
Status SaveEdgeList(const Graph& g, const std::string& path);

/// Reads an edge list of "u v" lines (exactly two integer ids each). Node
/// count is 1 + max id unless `num_nodes` > 0. Lines starting with '#' are
/// comments; blank lines are skipped.
Result<Graph> LoadEdgeList(const std::string& path, int num_nodes = 0);

/// Writes node attributes as CSV without header (one row per node).
Status SaveAttributes(const Matrix& x, const std::string& path);

/// Reads a headerless numeric CSV into a Matrix; NotFound when `path` does
/// not exist.
Result<Matrix> LoadAttributes(const std::string& path);

/// Writes one group per line: "pattern_name: id id id ...".
Status SaveGroups(const Dataset& dataset, const std::string& path);

/// Parses the SaveGroups format into (groups, patterns); InvalidArgument
/// naming the line for any token that is not an integer node id, NotFound
/// (with both outputs cleared) when `path` does not exist.
Status LoadGroups(const std::string& path,
                  std::vector<std::vector<int>>* groups,
                  std::vector<TopologyPattern>* patterns);

/// Saves graph + attributes + groups under `prefix` (.edges/.attrs/.groups).
Status SaveDataset(const Dataset& dataset, const std::string& prefix);

/// Loads a dataset saved by SaveDataset. A missing .attrs file means no
/// attributes and a missing .groups file no labeled groups; a malformed
/// one, or a group id outside the graph, is an error.
Result<Dataset> LoadDataset(const std::string& prefix,
                            const std::string& name);

}  // namespace grgad

#endif  // GRGAD_DATA_IO_H_
