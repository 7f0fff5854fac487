// Dataset serialization round-trips and malformed-input handling.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "src/data/io.h"
#include "src/data/registry.h"
#include "tests/kernel_test_util.h"
#include "tests/reference/reference_graph.h"

namespace grgad {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void WriteFileOrDie(const std::string& path, const std::string& content) {
  std::ofstream f(path);
  ASSERT_TRUE(f.is_open());
  f << content;
}

TEST(IoTest, EdgeListRoundTrip) {
  GraphBuilder b(5);
  b.AddEdge(0, 1);
  b.AddEdge(1, 4);
  b.AddEdge(2, 3);
  Graph g = b.Build();
  const std::string path = TempPath("edges.txt");
  ASSERT_TRUE(SaveEdgeList(g, path).ok());
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_nodes(), 5);
  EXPECT_EQ(reference::EdgeList(loaded.value()), reference::EdgeList(g));
}

TEST(IoTest, EdgeListExplicitNodeCount) {
  WriteFileOrDie(TempPath("tiny.edges"), "0 1\n");
  auto loaded = LoadEdgeList(TempPath("tiny.edges"), 10);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().num_nodes(), 10);
  auto conflict = LoadEdgeList(TempPath("tiny.edges"), 1);
  EXPECT_FALSE(conflict.ok());
}

TEST(IoTest, EdgeListRejectsGarbage) {
  WriteFileOrDie(TempPath("bad.edges"), "0 x\n");
  EXPECT_FALSE(LoadEdgeList(TempPath("bad.edges")).ok());
  // A partial or trailing token is damage, not the edge before it.
  WriteFileOrDie(TempPath("frac.edges"), "0 1.5\n");
  EXPECT_FALSE(LoadEdgeList(TempPath("frac.edges")).ok());
  WriteFileOrDie(TempPath("extra.edges"), "1 2 junk\n");
  EXPECT_FALSE(LoadEdgeList(TempPath("extra.edges")).ok());
  WriteFileOrDie(TempPath("neg.edges"), "-1 2\n");
  EXPECT_FALSE(LoadEdgeList(TempPath("neg.edges")).ok());
  EXPECT_FALSE(LoadEdgeList("/no/such/file.edges").ok());
}

TEST(IoTest, AttributesRoundTrip) {
  Matrix x = testing::FromRows({{1.5, -2.0}, {0.0, 3.25}});
  const std::string path = TempPath("attrs.csv");
  ASSERT_TRUE(SaveAttributes(x, path).ok());
  auto loaded = LoadAttributes(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded.value().ApproxEquals(x, 1e-9));
}

TEST(IoTest, AttributesRejectRaggedRows) {
  WriteFileOrDie(TempPath("ragged.csv"), "1,2\n3\n");
  EXPECT_FALSE(LoadAttributes(TempPath("ragged.csv")).ok());
  WriteFileOrDie(TempPath("nonnum.csv"), "1,abc\n");
  EXPECT_FALSE(LoadAttributes(TempPath("nonnum.csv")).ok());
}

TEST(IoTest, GroupsRoundTrip) {
  Dataset d;
  d.name = "t";
  GraphBuilder b(10);
  b.AddEdge(0, 1);
  d.graph = b.Build();
  d.anomaly_groups = {{1, 2, 3}, {5, 7}};
  d.group_patterns = {TopologyPattern::kPath, TopologyPattern::kCycle};
  const std::string path = TempPath("groups.txt");
  ASSERT_TRUE(SaveGroups(d, path).ok());
  std::vector<std::vector<int>> groups;
  std::vector<TopologyPattern> patterns;
  ASSERT_TRUE(LoadGroups(path, &groups, &patterns).ok());
  EXPECT_EQ(groups, d.anomaly_groups);
  EXPECT_EQ(patterns, d.group_patterns);
}

TEST(IoTest, GroupsRejectBadLines) {
  std::vector<std::vector<int>> groups;
  std::vector<TopologyPattern> patterns;
  WriteFileOrDie(TempPath("nocolon.groups"), "path 1 2 3\n");
  EXPECT_FALSE(LoadGroups(TempPath("nocolon.groups"), &groups,
                          &patterns).ok());
  WriteFileOrDie(TempPath("badpat.groups"), "star: 1 2 3\n");
  EXPECT_FALSE(LoadGroups(TempPath("badpat.groups"), &groups,
                          &patterns).ok());
  WriteFileOrDie(TempPath("empty.groups"), "path:\n");
  EXPECT_FALSE(LoadGroups(TempPath("empty.groups"), &groups,
                          &patterns).ok());
}

TEST(IoTest, GroupsRejectNonIntegerIds) {
  // Parsing must not stop at the bad token and keep the group {1}.
  std::vector<std::vector<int>> groups;
  std::vector<TopologyPattern> patterns;
  WriteFileOrDie(TempPath("badid.groups"), "path: 1 x 3\n");
  const Status status =
      LoadGroups(TempPath("badid.groups"), &groups, &patterns);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("path: 1 x 3"), std::string::npos)
      << status.ToString();
}

/// Writes a 4-node chain dataset under `prefix`: .edges, .groups, and
/// .attrs when `attrs` is non-null.
void WriteChainDataset(const std::string& prefix, const char* groups,
                       const char* attrs) {
  WriteFileOrDie(prefix + ".edges", "0 1\n1 2\n2 3\n");
  WriteFileOrDie(prefix + ".groups", groups);
  std::filesystem::remove(prefix + ".attrs");
  if (attrs != nullptr) WriteFileOrDie(prefix + ".attrs", attrs);
}

TEST(IoTest, DatasetWithoutAttrsLoadsUnattributed) {
  const std::string prefix = TempPath("chain_noattrs");
  WriteChainDataset(prefix, "path: 0 1 2\n", nullptr);
  auto loaded = LoadDataset(prefix, "chain");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded.value().graph.has_attributes());
}

TEST(IoTest, DatasetWithoutGroupsLoadsUnlabeled) {
  // .edges and .attrs only: the unlabeled data a user brings.
  const std::string prefix = TempPath("chain_nogroups");
  WriteChainDataset(prefix, "path: 0 1 2\n", "1,2\n3,4\n5,6\n7,8\n");
  std::filesystem::remove(prefix + ".groups");
  auto loaded = LoadDataset(prefix, "chain");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().graph.num_nodes(), 4);
  EXPECT_TRUE(loaded.value().graph.has_attributes());
  EXPECT_TRUE(loaded.value().anomaly_groups.empty());
  EXPECT_TRUE(loaded.value().group_patterns.empty());
}

TEST(IoTest, DatasetWithMalformedAttrsIsAnError) {
  // The .attrs file exists but does not parse: that is an error, not "no
  // attributes".
  const std::string prefix = TempPath("chain_badattrs");
  WriteChainDataset(prefix, "path: 0 1 2\n", "1,2\nx,3\n1,1\n2,2\n");
  auto loaded = LoadDataset(prefix, "chain");
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(IoTest, DatasetRejectsGroupIdsOutsideTheGraph) {
  const std::string prefix = TempPath("chain_badgroup");
  WriteChainDataset(prefix, "cycle: 2 99\n", "1,2\n3,4\n5,6\n7,8\n");
  auto loaded = LoadDataset(prefix, "chain");
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("99"), std::string::npos)
      << loaded.status().ToString();
}

TEST(IoTest, FullDatasetRoundTrip) {
  DatasetOptions options;
  options.scale = 0.1;
  options.attr_dim = 8;
  auto gen = MakeDataset("simml", options);
  ASSERT_TRUE(gen.ok());
  const std::string prefix = TempPath("simml_rt");
  ASSERT_TRUE(SaveDataset(gen.value(), prefix).ok());
  auto loaded = LoadDataset(prefix, "simml");
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().graph.num_nodes(), gen.value().graph.num_nodes());
  EXPECT_EQ(reference::EdgeList(loaded.value().graph),
            reference::EdgeList(gen.value().graph));
  EXPECT_TRUE(loaded.value().graph.attributes().ApproxEquals(
      gen.value().graph.attributes(), 1e-8));
  EXPECT_EQ(loaded.value().anomaly_groups, gen.value().anomaly_groups);
  EXPECT_EQ(loaded.value().group_patterns, gen.value().group_patterns);
}

}  // namespace
}  // namespace grgad
