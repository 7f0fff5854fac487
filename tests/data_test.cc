// Dataset generators: determinism, statistical shape (Table I), planted
// pattern mixes (Table II), label consistency, and the synthetic-commons.
#include <algorithm>
#include <cmath>
#include <iterator>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "src/data/registry.h"
#include "src/data/synth_common.h"
#include "src/sampling/pattern_search.h"
#include "src/util/atomic_io.h"
#include "tests/reference/reference_graph.h"

namespace grgad {
namespace {

DatasetOptions Quick(uint64_t seed = 42, double scale = 0.25) {
  DatasetOptions options;
  options.seed = seed;
  options.scale = scale;
  options.attr_dim = 24;
  return options;
}

void CheckDatasetInvariants(const Dataset& d) {
  ASSERT_TRUE(d.graph.Validate().ok()) << d.name;
  EXPECT_TRUE(d.graph.has_attributes()) << d.name;
  EXPECT_EQ(d.anomaly_groups.size(), d.group_patterns.size()) << d.name;
  for (const auto& group : d.anomaly_groups) {
    EXPECT_GE(group.size(), 2u) << d.name;
    EXPECT_TRUE(std::is_sorted(group.begin(), group.end())) << d.name;
    for (int v : group) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, d.graph.num_nodes());
    }
  }
  // Groups are disjoint in the financial datasets (each account belongs to
  // one ring); allow overlap only through shared anchors (citation sets).
  const std::vector<int> labels = d.NodeLabels();
  const double contamination =
      static_cast<double>(std::count(labels.begin(), labels.end(), 1)) /
      d.graph.num_nodes();
  EXPECT_GT(contamination, 0.0) << d.name;
  EXPECT_LT(contamination, 0.35) << d.name;
}

class RegistryDatasetTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryDatasetTest, GeneratesValidDataset) {
  auto result = MakeDataset(GetParam(), Quick());
  ASSERT_TRUE(result.ok());
  CheckDatasetInvariants(result.value());
  EXPECT_EQ(result.value().name, GetParam());
}

TEST_P(RegistryDatasetTest, DeterministicForSeed) {
  auto a = MakeDataset(GetParam(), Quick(7));
  auto b = MakeDataset(GetParam(), Quick(7));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().graph.num_nodes(), b.value().graph.num_nodes());
  EXPECT_EQ(reference::EdgeList(a.value().graph),
            reference::EdgeList(b.value().graph));
  EXPECT_TRUE(a.value().graph.attributes().ApproxEquals(
      b.value().graph.attributes(), 1e-12));
  EXPECT_EQ(a.value().anomaly_groups, b.value().anomaly_groups);
}

TEST_P(RegistryDatasetTest, DifferentSeedsDiffer) {
  auto a = MakeDataset(GetParam(), Quick(7));
  auto b = MakeDataset(GetParam(), Quick(8));
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(reference::EdgeList(a.value().graph),
            reference::EdgeList(b.value().graph));
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, RegistryDatasetTest,
                         ::testing::ValuesIn(ListDatasets()));

/// FNV-1a over a list of integer rows: each id, then a row break.
template <typename Rows>
uint64_t RowsFingerprint(int num_rows, const Rows& row) {
  std::string text;
  for (int r = 0; r < num_rows; ++r) {
    for (int v : row(r)) {
      text += std::to_string(v);
      text += ' ';
    }
    text += '\n';
  }
  return Fnv1a64(text);
}

struct DatasetPin {
  const char* name;
  int nodes;
  int edges;
  uint64_t csr_rows;  ///< RowsFingerprint of the neighbor rows.
  uint64_t groups;    ///< RowsFingerprint of the anomaly groups.
};

// Every registry dataset at default options. Integers only, so one literal
// set holds on every build and ISA; a generator change that moves a single
// edge or group member shows here.
constexpr DatasetPin kDatasetPins[] = {
    {"simml", 2768, 4267, 0x1cee7c683ad39c4bULL, 0x91dd213a3e5214deULL},
    {"cora-group", 2801, 5425, 0xd3964fcaef37c380ULL, 0x6ff6d5fa95f0cdafULL},
    {"citeseer-group", 3399, 4716, 0x84307169647b6c99ULL,
     0x5393daf655530037ULL},
    {"amlpublic", 16720, 17271, 0x913e420708c87cf1ULL, 0x71be081d8a661f05ULL},
    {"ethereum", 1823, 3183, 0xe693db56cb4b1332ULL, 0xbdca53a5c742129fULL},
    {"example", 111, 215, 0x4e42a0e7774b43b1ULL, 0x1ae638860bf903b7ULL},
};

TEST(RegistryTest, DefaultDatasetsArePinned) {
  ASSERT_EQ(ListDatasets().size(), std::size(kDatasetPins));
  for (const std::string& name : ListDatasets()) {
    const DatasetPin* pin = nullptr;
    for (const DatasetPin& p : kDatasetPins) {
      if (name == p.name) pin = &p;
    }
    ASSERT_NE(pin, nullptr) << "no pin for " << name;
    auto made = MakeDataset(name);
    ASSERT_TRUE(made.ok()) << name;
    const Dataset& d = made.value();
    EXPECT_EQ(d.graph.num_nodes(), pin->nodes) << name;
    EXPECT_EQ(d.graph.num_edges(), pin->edges) << name;
    EXPECT_EQ(RowsFingerprint(d.graph.num_nodes(),
                              [&](int v) { return d.graph.Neighbors(v); }),
              pin->csr_rows)
        << name;
    EXPECT_EQ(RowsFingerprint(static_cast<int>(d.anomaly_groups.size()),
                              [&](int g) { return d.anomaly_groups[g]; }),
              pin->groups)
        << name;
  }
}

TEST(RegistryTest, UnknownNameIsNotFound) {
  auto result = MakeDataset("no-such-dataset", {});
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(DatasetStatsTest, FullScaleMatchesPaperTable1Shape) {
  // Full-size generation (only structural counts; no training).
  DatasetOptions options;
  options.seed = 1;
  auto simml = MakeDataset("simml", options);
  ASSERT_TRUE(simml.ok());
  EXPECT_NEAR(simml.value().graph.num_nodes(), 2768, 300);
  EXPECT_NEAR(simml.value().anomaly_groups.size(), 74, 10);
  EXPECT_NEAR(simml.value().AverageGroupSize(), 3.5, 1.0);

  auto eth = MakeDataset("ethereum", options);
  ASSERT_TRUE(eth.ok());
  EXPECT_NEAR(eth.value().graph.num_nodes(), 1823, 200);
  EXPECT_NEAR(eth.value().anomaly_groups.size(), 17, 3);
  EXPECT_NEAR(eth.value().AverageGroupSize(), 7.2, 2.0);

  auto aml = MakeDataset("amlpublic", options);
  ASSERT_TRUE(aml.ok());
  EXPECT_NEAR(aml.value().graph.num_nodes(), 16720, 500);
  EXPECT_NEAR(aml.value().AverageGroupSize(), 19.0, 4.0);
}

TEST(DatasetStatsTest, AmlPublicIsPathDominated) {
  // Table II: 18 of 19 AMLPublic groups are paths.
  auto aml = MakeDataset("amlpublic", Quick(3, 0.3));
  ASSERT_TRUE(aml.ok());
  int paths = 0;
  for (TopologyPattern p : aml.value().group_patterns) {
    paths += (p == TopologyPattern::kPath);
  }
  EXPECT_GE(paths, static_cast<int>(aml.value().group_patterns.size()) - 1);
}

TEST(DatasetStatsTest, EthereumIsTreeCycleDominated) {
  auto eth = MakeDataset("ethereum", Quick(3, 1.0));
  ASSERT_TRUE(eth.ok());
  int trees = 0, cycles = 0, paths = 0;
  for (TopologyPattern p : eth.value().group_patterns) {
    trees += (p == TopologyPattern::kTree);
    cycles += (p == TopologyPattern::kCycle);
    paths += (p == TopologyPattern::kPath);
  }
  EXPECT_GT(trees + cycles, paths * 3);
}

TEST(DatasetStatsTest, PlantedPatternsClassifyCorrectly) {
  // The induced subgraph of each planted group must classify to its label
  // (the group's own edges dominate; background edges may add chords, so we
  // require a strong majority rather than exactness).
  auto eth = MakeDataset("ethereum", Quick(11, 0.5));
  ASSERT_TRUE(eth.ok());
  const Dataset& d = eth.value();
  int agree = 0;
  for (size_t i = 0; i < d.anomaly_groups.size(); ++i) {
    const Graph sub = d.graph.InducedSubgraph(d.anomaly_groups[i]);
    if (ClassifyGroupPattern(sub) == d.group_patterns[i]) ++agree;
  }
  EXPECT_GE(agree * 3, static_cast<int>(d.anomaly_groups.size()) * 2);
}

TEST(DatasetTest, NodeLabelsMatchGroups) {
  auto simml = MakeDataset("simml", Quick());
  ASSERT_TRUE(simml.ok());
  const Dataset& d = simml.value();
  const auto labels = d.NodeLabels();
  std::set<int> members;
  for (const auto& g : d.anomaly_groups) members.insert(g.begin(), g.end());
  int positives = 0;
  for (int v = 0; v < d.graph.num_nodes(); ++v) {
    positives += labels[v];
    EXPECT_EQ(labels[v] == 1, members.count(v) > 0);
  }
  EXPECT_EQ(positives, static_cast<int>(members.size()));
}

TEST(SynthCommonTest, PreferentialAttachmentConnected) {
  GraphBuilder b(200);
  Rng rng(5);
  AppendPreferentialAttachment(&b, 200, 1, &rng);
  Graph g = b.Build();
  EXPECT_GE(g.num_edges(), 180);
  // Hubs exist: max degree well above the mean.
  int max_deg = 0;
  for (int v = 0; v < 200; ++v) max_deg = std::max(max_deg, g.Degree(v));
  EXPECT_GE(max_deg, 6);
}

TEST(SynthCommonTest, ErdosRenyiEdgeCount) {
  GraphBuilder b(100);
  Rng rng(6);
  AppendErdosRenyiEdges(&b, 100, 150, &rng);
  EXPECT_NEAR(b.num_edges(), 150, 10);
}

TEST(SynthCommonTest, RandomForestIsAcyclic) {
  GraphBuilder b(120);
  Rng rng(7);
  AppendRandomForest(&b, 120, 12, &rng);
  Graph g = b.Build();
  EXPECT_EQ(g.num_edges(), 120 - 12);  // |V| - #trees for a forest.
}

TEST(SynthCommonTest, PlantPatternShapes) {
  Rng rng(8);
  {
    GraphBuilder b(10);
    PlantPattern(&b, {0, 1, 2, 3, 4}, TopologyPattern::kPath, &rng);
    Graph g = b.Build();
    EXPECT_EQ(g.num_edges(), 4);
    EXPECT_EQ(g.Degree(0), 1);
    EXPECT_EQ(g.Degree(2), 2);
  }
  {
    GraphBuilder b(10);
    PlantPattern(&b, {0, 1, 2, 3, 4, 5}, TopologyPattern::kCycle, &rng);
    Graph g = b.Build();
    EXPECT_EQ(g.num_edges(), 6);
    for (int v = 0; v < 6; ++v) EXPECT_EQ(g.Degree(v), 2);
  }
  {
    GraphBuilder b(10);
    PlantPattern(&b, {0, 1, 2, 3, 4, 5, 6}, TopologyPattern::kTree, &rng);
    Graph g = b.Build();
    EXPECT_EQ(g.num_edges(), 6);  // Tree: n-1 edges.
  }
}

TEST(SynthCommonTest, TakeUnusedNodesMarksUsage) {
  std::vector<uint8_t> used(50, 0);
  Rng rng(9);
  const auto a = TakeUnusedNodes(&used, 0, 50, 20, &rng);
  const auto b = TakeUnusedNodes(&used, 0, 50, 20, &rng);
  std::set<int> all(a.begin(), a.end());
  all.insert(b.begin(), b.end());
  EXPECT_EQ(all.size(), 40u);  // No overlap between draws.
}

TEST(SynthCommonTest, ApplyGroupOffsetIsCoherent) {
  Matrix x(6, 10);
  Rng rng(10);
  ApplyGroupOffset(&x, {1, 3, 5}, 2.0, 0.5, &rng);
  // Offset rows must be similar to each other and differ from zero rows.
  double diff_13 = 0.0, norm_1 = 0.0;
  for (int j = 0; j < 10; ++j) {
    diff_13 += std::fabs(x(1, j) - x(3, j));
    norm_1 += std::fabs(x(1, j));
  }
  EXPECT_GT(norm_1, 1.0);          // Shift applied.
  EXPECT_LT(diff_13, norm_1 * 0.5);  // Shared direction.
  for (int j = 0; j < 10; ++j) EXPECT_DOUBLE_EQ(x(0, j), 0.0);
}

TEST(SynthCommonTest, SamplePatternSizeBounds) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const int s = SamplePatternSize(6.0, 4, 10, &rng);
    ASSERT_GE(s, 4);
    ASSERT_LE(s, 10);
  }
}

TEST(SynthCommonTest, CommunityBagOfWordsHomophily) {
  Rng rng(12);
  std::vector<int> comm(60);
  for (int i = 0; i < 60; ++i) comm[i] = i % 3;
  Matrix x = CommunityBagOfWords(comm, 3, 90, 12, &rng);
  // Same-community rows share more active words than cross-community rows.
  auto overlap = [&x](int a, int b) {
    int o = 0;
    for (size_t j = 0; j < x.cols(); ++j) {
      o += (x(a, j) > 0 && x(b, j) > 0);
    }
    return o;
  };
  double same = 0, cross = 0;
  int same_n = 0, cross_n = 0;
  for (int a = 0; a < 30; ++a) {
    for (int b = a + 1; b < 30; ++b) {
      if (comm[a] == comm[b]) {
        same += overlap(a, b);
        ++same_n;
      } else {
        cross += overlap(a, b);
        ++cross_n;
      }
    }
  }
  EXPECT_GT(same / same_n, cross / cross_n);
}

}  // namespace
}  // namespace grgad
