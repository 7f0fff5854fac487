// Table I reproduction: statistical details of the five datasets.
// Prints #Node / #Edge / #Attr / #AnomalyGroup / Avg.size for our generated
// instances next to the paper's reported values.
#include "bench/bench_common.h"

namespace grgad::bench {
namespace {

struct PaperRow {
  const char* name;
  int nodes, edges, attrs, groups;
  double avg_size;
};

// The paper's Table I (edges there count the raw directed/multigraph dumps;
// ours are simple undirected — shape, not equality, is the target).
constexpr PaperRow kPaperRows[] = {
    {"simml", 2768, 4226, 3123, 74, 3.52},
    {"cora-group", 2847, 10792, 1433, 22, 6.32},
    {"citeseer-group", 3463, 9334, 3703, 22, 6.18},
    {"amlpublic", 16720, 17238, 16, 19, 19.05},
    {"ethereum", 1823, 3254, 13, 17, 7.23},
};

int Run() {
  Banner("Table I: statistical details of the datasets (ours vs paper)");
  std::printf("%-16s %22s %22s %8s %14s %18s\n", "Dataset", "#Node (paper)",
              "#Edge (paper)", "#Attr", "#Groups (paper)",
              "Avg.size (paper)");
  CsvWriter csv({"dataset", "nodes", "edges", "attr_dim", "groups",
                 "avg_size", "paper_nodes", "paper_edges", "paper_groups",
                 "paper_avg_size"});
  for (const PaperRow& row : kPaperRows) {
    Dataset d;
    if (!LoadBenchDataset(row.name, &d)) return 1;
    std::printf("%-16s %9d (%6d) %9d (%6d) %8zu %6zu (%3d) %10.2f (%5.2f)\n",
                row.name, d.graph.num_nodes(), row.nodes, d.graph.num_edges(),
                row.edges, d.graph.attr_dim(), d.anomaly_groups.size(),
                row.groups, d.AverageGroupSize(), row.avg_size);
    csv.AppendRow({row.name, std::to_string(d.graph.num_nodes()),
                   std::to_string(d.graph.num_edges()),
                   std::to_string(d.graph.attr_dim()),
                   std::to_string(d.anomaly_groups.size()),
                   FormatDouble(d.AverageGroupSize()),
                   std::to_string(row.nodes), std::to_string(row.edges),
                   std::to_string(row.groups), FormatDouble(row.avg_size)});
  }
  std::printf("\nNote: #Attr is configurable (DatasetOptions::attr_dim); the\n"
              "paper's raw bag-of-words widths are narrowed by default for\n"
              "2-core runtime (README.md, \"Deviations from the paper\").\n");
  EmitCsv(csv, "table1_datasets.csv");
  return 0;
}

}  // namespace
}  // namespace grgad::bench

int main() { return grgad::bench::Run(); }
