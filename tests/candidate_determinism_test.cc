// Determinism contract of the candidate stage (PERF.md, "Candidate
// stage"):
//   - GroupSampler::Sample output — groups, order, and the seeded
//     subsample draw — matches golden fingerprints in every path-search
//     mode;
//   - the output is invariant across GRGAD_THREADS and across repeated
//     runs (pooled workspaces carry no state between calls);
//   - the TPGCL batch built off SubgraphViews equals the batch built from
//     InducedSubgraph copies (pattern search and augmentation on views are
//     pinned in traversal_equivalence_test.cc);
//   - the candidate stage reports candidates/* sub-stage timings under
//     profile telemetry;
//   - steady-state sampling performs zero workspace heap allocations.
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/stages.h"
#include "src/data/example_graph.h"
#include "src/gcl/tpgcl.h"
#include "src/graph/traversal_workspace.h"
#include "src/sampling/group_sampler.h"
#include "src/util/atomic_io.h"
#include "tests/kernel_test_util.h"

namespace grgad {
namespace {

using testing::BitwiseEqual;
using testing::ScopedDegree;

/// The paper's example graph plus a dense anchor set (planted group members
/// and a sweep) — enough anchors that every search branch fires.
struct Fixture {
  Dataset dataset;
  std::vector<int> anchors;
};

Fixture MakeFixture() {
  Fixture f;
  f.dataset = GenExampleGraph({});
  std::set<int> anchors;
  for (const auto& group : f.dataset.anomaly_groups) {
    anchors.insert(group.front());
    anchors.insert(group[group.size() / 2]);
    anchors.insert(group.back());
  }
  for (int v = 0; v < f.dataset.graph.num_nodes(); v += 5) anchors.insert(v);
  f.anchors.assign(anchors.begin(), anchors.end());
  return f;
}

GroupSamplerOptions ModeOptions(PathSearchMode mode) {
  GroupSamplerOptions options;
  options.path_mode = mode;
  return options;
}

/// FNV-1a over every group's size (as uint64_t) and members (as int), in
/// output order.
uint64_t GroupsFingerprint(const std::vector<std::vector<int>>& groups) {
  std::string bytes;
  for (const auto& group : groups) {
    const uint64_t size = group.size();
    bytes.append(reinterpret_cast<const char*>(&size), sizeof(size));
    bytes.append(reinterpret_cast<const char*>(group.data()),
                 group.size() * sizeof(int));
  }
  return Fnv1a64(bytes);
}

// Golden sampler outputs for the fixture above, captured from the serial
// one-anchor-at-a-time implementation the anchor-parallel sampler replaced
// (it produced identical output). Groups are integer node lists, so the
// literals hold with and without -march=native.
struct SamplerGolden {
  PathSearchMode mode;
  size_t groups;
  uint64_t fingerprint;
};
constexpr SamplerGolden kModeGoldens[] = {
    {PathSearchMode::kUnweighted, 613, 9657946660642754066ULL},
    {PathSearchMode::kAttributeDistance, 597, 9216260895286248541ULL},
    {PathSearchMode::kGraphSnnWeighted, 609, 14237347133656735340ULL},
};
constexpr uint64_t kSubsampleFingerprint = 11575637875626531778ULL;

TEST(CandidateDeterminismTest, MatchesGoldenInEveryMode) {
  const Fixture f = MakeFixture();
  for (const SamplerGolden& golden : kModeGoldens) {
    GroupSampler sampler(ModeOptions(golden.mode));
    for (int degree : {1, 4}) {
      ScopedDegree scoped(degree);
      const auto got = sampler.Sample(f.dataset.graph, f.anchors);
      EXPECT_EQ(got.size(), golden.groups)
          << "mode=" << static_cast<int>(golden.mode) << " degree=" << degree;
      EXPECT_EQ(GroupsFingerprint(got), golden.fingerprint)
          << "mode=" << static_cast<int>(golden.mode) << " degree=" << degree;
    }
  }
}

TEST(CandidateDeterminismTest, InvariantAcrossThreadsAndRuns) {
  const Fixture f = MakeFixture();
  GroupSampler sampler(ModeOptions(PathSearchMode::kAttributeDistance));
  std::vector<std::vector<int>> reference;
  {
    ScopedDegree degree(1);
    reference = sampler.Sample(f.dataset.graph, f.anchors);
  }
  ASSERT_FALSE(reference.empty());
  for (int degree : {2, 4}) {
    ScopedDegree scoped(degree);
    EXPECT_EQ(sampler.Sample(f.dataset.graph, f.anchors), reference)
        << "degree=" << degree;
    // Repeated run with warm pooled workspaces.
    EXPECT_EQ(sampler.Sample(f.dataset.graph, f.anchors), reference);
  }
}

TEST(CandidateDeterminismTest, SubsampleDrawIsPreserved) {
  const Fixture f = MakeFixture();
  GroupSamplerOptions options;  // Default attribute-distance mode.
  options.max_groups = 7;      // Forces the seeded subsample.
  GroupSampler sampler(options);
  for (int degree : {1, 4}) {
    ScopedDegree scoped(degree);
    const auto got = sampler.Sample(f.dataset.graph, f.anchors);
    ASSERT_EQ(got.size(), 7u) << "degree=" << degree;
    EXPECT_EQ(GroupsFingerprint(got), kSubsampleFingerprint)
        << "degree=" << degree;
  }
}

TEST(CandidateDeterminismTest, TelemetryDoesNotChangeOutput) {
  const Fixture f = MakeFixture();
  GroupSampler sampler{GroupSamplerOptions{}};
  const auto want = sampler.Sample(f.dataset.graph, f.anchors);
  SampleTelemetry telemetry;
  EXPECT_EQ(sampler.Sample(f.dataset.graph, f.anchors, &telemetry), want);
  EXPECT_GE(telemetry.search_seconds, 0.0);
  EXPECT_GE(telemetry.components_seconds, 0.0);
  EXPECT_GE(telemetry.select_seconds, 0.0);
}

TEST(CandidateDeterminismTest, CandidateStageProfileSubStages) {
  const Fixture f = MakeFixture();
  TpGrGadOptions options;
  RunContext ctx;
  ctx.profile = true;
  auto result = RunCandidateStage(f.dataset.graph, f.anchors, options, &ctx);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result.value().groups.empty());
  std::vector<std::string> stages;
  for (const StageTiming& t : ctx.stage_timings()) stages.push_back(t.stage);
  EXPECT_EQ(stages,
            (std::vector<std::string>{"candidates/search",
                                      "candidates/components",
                                      "candidates/select", "sampling"}));
  // Without profile: only the top-level stage timing.
  RunContext plain;
  auto plain_result =
      RunCandidateStage(f.dataset.graph, f.anchors, options, &plain);
  ASSERT_TRUE(plain_result.ok());
  EXPECT_EQ(plain_result.value().groups, result.value().groups);
  ASSERT_EQ(plain.stage_timings().size(), 1u);
  EXPECT_EQ(plain.stage_timings()[0].stage, "sampling");
}

TEST(CandidateDeterminismTest, SteadyStateSamplingIsWorkspaceAllocFree) {
  const Fixture f = MakeFixture();
  ScopedDegree degree(4);
  GroupSampler sampler{GroupSamplerOptions{}};
  // Two warm-up calls grow every pooled workspace to this graph.
  sampler.Sample(f.dataset.graph, f.anchors);
  sampler.Sample(f.dataset.graph, f.anchors);
  const uint64_t before = TraversalWorkspace::TotalHeapAllocs();
  sampler.Sample(f.dataset.graph, f.anchors);
  EXPECT_EQ(TraversalWorkspace::TotalHeapAllocs(), before);
}

TEST(CandidateDeterminismTest, BatchFromGroupsMatchesInducedBatch) {
  const Fixture f = MakeFixture();
  std::vector<std::vector<int>> groups = f.dataset.anomaly_groups;
  std::vector<Graph> induced;
  induced.reserve(groups.size());
  for (const auto& group : groups) {
    induced.push_back(f.dataset.graph.InducedSubgraph(group));
  }
  const GraphBatch want = BuildGraphBatch(induced);
  const GraphBatch got = BuildGraphBatchFromGroups(f.dataset.graph, groups);
  EXPECT_TRUE(BitwiseEqual(got.x, want.x));
  ASSERT_EQ(got.op->nnz(), want.op->nnz());
  ASSERT_EQ(got.op->rows(), want.op->rows());
  for (size_t i = 0; i < want.op->rows(); ++i) {
    auto want_cols = want.op->RowCols(i);
    auto got_cols = got.op->RowCols(i);
    ASSERT_EQ(std::vector<int>(got_cols.begin(), got_cols.end()),
              std::vector<int>(want_cols.begin(), want_cols.end()));
    auto want_vals = want.op->RowValues(i);
    auto got_vals = got.op->RowValues(i);
    for (size_t p = 0; p < want_vals.size(); ++p) {
      ASSERT_EQ(got_vals[p], want_vals[p]) << "row " << i;
    }
  }
  ASSERT_EQ(got.pool->nnz(), want.pool->nnz());
}

}  // namespace
}  // namespace grgad
