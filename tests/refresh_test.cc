// Incremental refresh over a mutable graph (the PR's golden contract):
//   1. dirty-region tracking — an edge mutation marks exactly the anchors
//      whose radius-R balls contain an endpoint; weighted path modes are
//      not radius-local and must MarkAll(),
//   2. the golden test — RefreshArtifacts over the tracker's dirty set is
//      bitwise identical to re-running the candidate + pooled-embedding +
//      scoring stages from scratch on the mutated graph, at GRGAD_THREADS
//      1 and 4,
//   3. randomized mutation churn through the serving daemon — interleaved
//      add-edge / remove-edge / refresh requests end at the same resident
//      artifacts (and byte-identical rescore responses) as a from-scratch
//      daemon on the rebuilt final graph, and the outcome is independent of
//      the admission order of commuting mutations.
#include "src/core/refresh.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "src/core/artifacts.h"
#include "src/core/stages.h"
#include "src/graph/dynamic_graph.h"
#include "src/sampling/dirty_tracker.h"
#include "src/serve/request.h"
#include "src/serve/server.h"
#include "src/tensor/matrix.h"
#include "src/util/rng.h"
#include "tests/kernel_test_util.h"

namespace grgad {
namespace {

Graph ChainGraph(int n) {
  GraphBuilder b(n);
  for (int v = 0; v + 1 < n; ++v) b.AddEdge(v, v + 1);
  return b.Build();
}

/// Connected random graph (spanning tree + extras) with 4-dim attributes.
Graph RandomGraph(int n, int extra_edges, uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (int v = 1; v < n; ++v) {
    b.AddEdge(v, static_cast<int>(rng.UniformInt(static_cast<uint64_t>(v))));
  }
  for (int e = 0; e < extra_edges; ++e) {
    const int u = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
    const int v = static_cast<int>(rng.UniformInt(static_cast<uint64_t>(n)));
    if (u != v) b.AddEdge(u, v);
  }
  Matrix x = Matrix::Gaussian(n, 4, &rng);
  return b.Build(std::move(x));
}

std::vector<int> EveryKth(int n, int k) {
  std::vector<int> anchors;
  for (int v = 0; v < n; v += k) anchors.push_back(v);
  return anchors;
}

/// Options whose candidate output is radius-local: hop-count path search
/// with small radii, so ball invalidation is sound AND actually local on a
/// few-hundred-node graph.
TpGrGadOptions LocalOptions(uint64_t seed = 29) {
  TpGrGadOptions options;
  options.seed = seed;
  options.sampler.path_mode = PathSearchMode::kUnweighted;
  options.sampler.pair_radius = 4;
  options.sampler.cycle_max_len = 4;
  options.ReseedStages();
  return options;
}

/// What RefreshArtifacts promises to match: the candidate stage plus the
/// pooled embedding + scoring stages, run fresh on `g` with fixed anchors.
struct Reference {
  std::vector<std::vector<int>> groups;
  Matrix embeddings;
  std::vector<double> scores;
  std::vector<ScoredGroup> scored_groups;
};

void FullReference(const Graph& g, const std::vector<int>& anchors,
                   const TpGrGadOptions& options, Reference* out) {
  auto candidates = RunCandidateStage(g, anchors, options);
  ASSERT_TRUE(candidates.ok()) << candidates.status().ToString();
  out->groups = std::move(candidates.value().groups);
  TpGrGadOptions pooled = options;
  pooled.disable_tpgcl = true;
  auto embedded = RunEmbeddingStage(g, out->groups, pooled);
  ASSERT_TRUE(embedded.ok()) << embedded.status().ToString();
  out->embeddings = std::move(embedded.value().embeddings);
  auto scored = RunScoringStage(out->embeddings, out->groups, pooled);
  ASSERT_TRUE(scored.ok()) << scored.status().ToString();
  out->scores = std::move(scored.value().scores);
  out->scored_groups = std::move(scored.value().scored_groups);
}

void ExpectSameScoredGroups(const std::vector<ScoredGroup>& a,
                            const std::vector<ScoredGroup>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].nodes, b[i].nodes) << "group " << i;
    EXPECT_EQ(a[i].score, b[i].score) << "group " << i;
  }
}

// ---- dirty-region tracking --------------------------------------------------

TEST(DirtyTrackerTest, OnlyHopCountSearchIsRadiusLocal) {
  GroupSamplerOptions options;
  options.path_mode = PathSearchMode::kUnweighted;
  EXPECT_TRUE(IncrementalInvalidationSound(options));
  options.path_mode = PathSearchMode::kAttributeDistance;
  EXPECT_FALSE(IncrementalInvalidationSound(options));
  options.path_mode = PathSearchMode::kGraphSnnWeighted;
  EXPECT_FALSE(IncrementalInvalidationSound(options));

  options.pair_radius = 4;
  options.cycle_max_len = 7;
  EXPECT_EQ(InvalidationRadius(options), 7);
  options.pair_radius = 9;
  EXPECT_EQ(InvalidationRadius(options), 9);
}

TEST(DirtyTrackerTest, ChainBallMarksOnlyNearbyAnchors) {
  const Graph g = ChainGraph(100);
  const std::vector<int> anchors = EveryKth(100, 10);  // 0, 10, ..., 90.
  AnchorDirtyTracker tracker;
  tracker.Reset(anchors, /*radius=*/4, g.num_nodes());

  // Ball of radius 4 around {50, 51} covers nodes 46..55: anchor 50 only.
  EXPECT_EQ(tracker.MarkFromEdge(g, 50, 51), 1);
  EXPECT_EQ(tracker.dirty_count(), 1u);
  // Fanout counts anchors in the ball even when already dirty.
  EXPECT_EQ(tracker.MarkFromEdge(g, 50, 51), 1);
  EXPECT_EQ(tracker.dirty_count(), 1u);
  // {14, 15} covers 10..19: anchor 10 (index 1).
  EXPECT_EQ(tracker.MarkFromEdge(g, 14, 15), 1);
  // {25, 26} covers 21..30: anchor 30 (index 3) only.
  EXPECT_EQ(tracker.MarkFromEdge(g, 25, 26), 1);

  EXPECT_EQ(tracker.TakeDirtyIndices(), (std::vector<int>{1, 3, 5}));
  EXPECT_EQ(tracker.dirty_count(), 0u);
  EXPECT_TRUE(tracker.TakeDirtyIndices().empty());
}

TEST(DirtyTrackerTest, MarkAll) {
  const Graph g = ChainGraph(40);
  const std::vector<int> anchors = {0, 10, 20, 30};
  AnchorDirtyTracker tracker;
  tracker.Reset(anchors, /*radius=*/3, g.num_nodes());

  tracker.MarkAll();
  EXPECT_TRUE(tracker.all_dirty());
  EXPECT_EQ(tracker.TakeDirtyIndices(), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_FALSE(tracker.all_dirty());
}

// ---- golden: incremental == from-scratch, bitwise ---------------------------

TEST(RefreshTest, UnprimedRefreshIsAFullResample) {
  const Graph g = RandomGraph(250, 120, 7);
  const TpGrGadOptions options = LocalOptions();
  PipelineArtifacts artifacts;
  artifacts.seed = options.seed;
  artifacts.anchors = EveryKth(g.num_nodes(), 5);
  RefreshState state;
  RefreshStats stats;
  const Status status =
      RefreshArtifacts(g, options, /*dirty_indices=*/{}, &state, &artifacts,
                       /*ctx=*/nullptr, &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(stats.full);
  EXPECT_EQ(stats.dirty_anchors, artifacts.anchors.size());
  EXPECT_TRUE(state.primed);
  ASSERT_GE(artifacts.candidate_groups.size(), 2u);
  EXPECT_EQ(artifacts.group_scores.size(), artifacts.candidate_groups.size());
}

TEST(RefreshTest, IncrementalMatchesFullRecomputeBitwise) {
  for (int degree : {1, 4}) {
    SCOPED_TRACE("degree=" + std::to_string(degree));
    testing::ScopedDegree scoped(degree);

    const Graph g0 = RandomGraph(250, 120, 7);
    const TpGrGadOptions options = LocalOptions();
    ASSERT_TRUE(IncrementalInvalidationSound(options.sampler));

    PipelineArtifacts artifacts;
    artifacts.seed = options.seed;
    artifacts.anchors = EveryKth(g0.num_nodes(), 5);
    RefreshState state;
    Status status = RefreshArtifacts(g0, options, {}, &state, &artifacts);
    ASSERT_TRUE(status.ok()) << status.ToString();

    AnchorDirtyTracker tracker;
    tracker.Reset(artifacts.anchors, InvalidationRadius(options.sampler),
                  g0.num_nodes());

    // One add (marked after applying) and one remove (marked before).
    DynamicGraph dg(g0);
    ASSERT_FALSE(dg.HasEdge(10, 200));
    ASSERT_TRUE(dg.AddEdge(10, 200));
    tracker.MarkFromEdge(dg.PackedView(), 10, 200);
    const int rv = dg.PackedView().Neighbors(40).front();
    tracker.MarkFromEdge(dg.PackedView(), 40, rv);
    ASSERT_TRUE(dg.RemoveEdge(40, rv));

    const std::vector<int> dirty = tracker.TakeDirtyIndices();
    ASSERT_FALSE(dirty.empty());
    // The point of the PR: a local mutation re-samples a strict subset.
    EXPECT_LT(dirty.size(), artifacts.anchors.size());

    RefreshStats stats;
    status = RefreshArtifacts(dg.PackedView(), options, dirty, &state,
                              &artifacts, nullptr, &stats);
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_FALSE(stats.full);
    EXPECT_EQ(stats.dirty_anchors, dirty.size());

    Reference ref;
    FullReference(dg.PackedView(), artifacts.anchors, options, &ref);
    ASSERT_GE(ref.groups.size(), 2u);
    EXPECT_EQ(artifacts.candidate_groups, ref.groups);
    EXPECT_TRUE(testing::BitwiseEqual(artifacts.group_embeddings,
                                      ref.embeddings));
    EXPECT_EQ(artifacts.group_scores, ref.scores);
    ExpectSameScoredGroups(artifacts.scored_groups, ref.scored_groups);
  }
}

// ---- churn through the daemon ----------------------------------------------

std::string ExecuteLine(ServeDaemon* daemon, const std::string& line) {
  auto request = ParseServeRequest(line);
  EXPECT_TRUE(request.ok()) << line << ": " << request.status().ToString();
  if (!request.ok()) return "";
  Status status;
  const std::string response = daemon->Execute(request.value(), &status);
  EXPECT_TRUE(status.ok()) << line << ": " << status.ToString();
  return response;
}

std::string MutationLine(int64_t id, bool add, int u, int v) {
  return "{\"id\": " + std::to_string(id) + ", \"op\": \"" +
         (add ? "add-edge" : "remove-edge") + "\", \"u\": " +
         std::to_string(u) + ", \"v\": " + std::to_string(v) + "}";
}

/// The graph a from-scratch GraphBuilder would produce from dg's edge set.
Graph Rebuild(const DynamicGraph& dg) {
  GraphBuilder b(dg.num_nodes());
  dg.PackedView().ForEachEdge([&b](int u, int v) { b.AddEdge(u, v); });
  return b.Build(dg.PackedView().attributes());
}

void ExpectSameArtifacts(const PipelineArtifacts& a,
                         const PipelineArtifacts& b) {
  EXPECT_EQ(a.candidate_groups, b.candidate_groups);
  EXPECT_TRUE(testing::BitwiseEqual(a.group_embeddings, b.group_embeddings));
  EXPECT_EQ(a.group_scores, b.group_scores);
  ExpectSameScoredGroups(a.scored_groups, b.scored_groups);
}

TEST(RefreshServeTest, ChurnMatchesFromScratchRebuildBitwise) {
  for (int degree : {1, 4}) {
    SCOPED_TRACE("degree=" + std::to_string(degree));
    testing::ScopedDegree scoped(degree);

    const Graph g0 = RandomGraph(220, 100, 11);
    ServeOptions serve_options;
    serve_options.pipeline = LocalOptions(31);
    PipelineArtifacts seed_artifacts;
    seed_artifacts.seed = serve_options.pipeline.seed;
    seed_artifacts.anchors = EveryKth(g0.num_nodes(), 5);

    ServeDaemon live(g0, seed_artifacts, serve_options);
    ASSERT_FALSE(ExecuteLine(&live, R"({"id": 1, "op": "refresh"})").empty());

    // Random churn: adds, removes, periodic incremental refreshes.
    Rng rng(77);
    int64_t id = 2;
    for (int step = 0; step < 60; ++step) {
      const int u = static_cast<int>(rng.UniformInt(220));
      const int v = static_cast<int>(rng.UniformInt(220));
      if (u == v) continue;
      const bool add = rng.Bernoulli(0.6);
      ExecuteLine(&live, MutationLine(id++, add, u, v));
      if (step % 9 == 8) {
        ExecuteLine(&live, "{\"id\": " + std::to_string(id++) +
                               ", \"op\": \"refresh\"}");
      }
    }
    ExecuteLine(&live, R"({"id": 900, "op": "refresh"})");

    // A daemon born on the rebuilt final graph, one full (unprimed) refresh.
    const Graph rebuilt = Rebuild(live.dynamic_graph());
    ServeDaemon fresh(rebuilt, seed_artifacts, serve_options);
    ASSERT_FALSE(
        ExecuteLine(&fresh, R"({"id": 901, "op": "refresh"})").empty());

    ExpectSameArtifacts(live.artifacts(), fresh.artifacts());
    // Byte-level: rescore is a pure function of the resident artifacts.
    const std::string probe =
        R"({"id": 950, "op": "rescore", "detector": "knn", "top": 6})";
    EXPECT_EQ(ExecuteLine(&live, probe), ExecuteLine(&fresh, probe));
  }
}

TEST(RefreshServeTest, AdmissionOrderDoesNotChangeScores) {
  const Graph g0 = RandomGraph(200, 80, 17);
  ServeOptions serve_options;
  serve_options.pipeline = LocalOptions(23);
  PipelineArtifacts seed_artifacts;
  seed_artifacts.seed = serve_options.pipeline.seed;
  seed_artifacts.anchors = EveryKth(g0.num_nodes(), 5);

  // A commuting mutation set: distinct absent edges to add plus distinct
  // present edges to remove (disjoint from the adds).
  std::vector<std::string> forward;
  Rng rng(5);
  int64_t id = 10;
  int added = 0;
  while (added < 8) {
    const int u = static_cast<int>(rng.UniformInt(200));
    const int v = static_cast<int>(rng.UniformInt(200));
    if (u == v || g0.HasEdge(u, v)) continue;
    forward.push_back(MutationLine(id++, /*add=*/true, u, v));
    ++added;
  }
  for (int v = 60; v < 64; ++v) {
    forward.push_back(
        MutationLine(id++, /*add=*/false, v, g0.Neighbors(v).front()));
  }
  std::vector<std::string> reversed(forward.rbegin(), forward.rend());

  std::vector<std::string> probes;
  for (const auto& order : {forward, reversed}) {
    ServeDaemon daemon(g0, seed_artifacts, serve_options);
    ExecuteLine(&daemon, R"({"id": 1, "op": "refresh"})");
    for (const std::string& line : order) ExecuteLine(&daemon, line);
    ExecuteLine(&daemon, R"({"id": 800, "op": "refresh"})");
    probes.push_back(ExecuteLine(
        &daemon, R"({"id": 801, "op": "rescore", "detector": "ecod"})"));
  }
  ASSERT_EQ(probes.size(), 2u);
  EXPECT_FALSE(probes[0].empty());
  EXPECT_EQ(probes[0], probes[1]);
}

}  // namespace
}  // namespace grgad
