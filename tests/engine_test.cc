// The Engine layer: stage decomposition equivalence, RunContext
// (cancellation / progress / telemetry), artifact persistence, the method
// registry, and string-keyed option overrides.
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "src/core/artifacts.h"
#include "src/core/method_registry.h"
#include "src/core/options.h"
#include "src/core/pipeline.h"
#include "src/core/stages.h"
#include "src/data/example_graph.h"

namespace grgad {
namespace {

TpGrGadOptions QuickOptions(uint64_t seed = 7) {
  TpGrGadOptions options;
  options.seed = seed;
  options.mh_gae.base.epochs = 10;
  options.mh_gae.base.hidden_dim = 32;
  options.mh_gae.base.embed_dim = 16;
  options.mh_gae.anchor_fraction = 0.15;
  options.tpgcl.epochs = 8;
  options.tpgcl.hidden_dim = 32;
  options.tpgcl.embed_dim = 16;
  options.ReseedStages();
  return options;
}

void ExpectArtifactsIdentical(const PipelineArtifacts& a,
                              const PipelineArtifacts& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.anchors, b.anchors);
  EXPECT_EQ(a.candidate_groups, b.candidate_groups);
  ASSERT_EQ(a.group_embeddings.rows(), b.group_embeddings.rows());
  ASSERT_EQ(a.group_embeddings.cols(), b.group_embeddings.cols());
  for (size_t i = 0; i < a.group_embeddings.rows(); ++i) {
    for (size_t j = 0; j < a.group_embeddings.cols(); ++j) {
      EXPECT_EQ(a.group_embeddings(i, j), b.group_embeddings(i, j))
          << "embedding (" << i << "," << j << ")";
    }
  }
  EXPECT_EQ(a.group_scores, b.group_scores);
  ASSERT_EQ(a.scored_groups.size(), b.scored_groups.size());
  for (size_t i = 0; i < a.scored_groups.size(); ++i) {
    EXPECT_EQ(a.scored_groups[i].nodes, b.scored_groups[i].nodes);
    EXPECT_EQ(a.scored_groups[i].score, b.scored_groups[i].score);
  }
  EXPECT_EQ(a.gae_node_errors, b.gae_node_errors);
  EXPECT_EQ(a.tpgcl_loss_history, b.tpgcl_loss_history);
}

std::string TempDir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("grgad_engine_test_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

// ---- stage decomposition ----------------------------------------------------

TEST(EngineStagesTest, StageByStageMatchesRunBitForBit) {
  // The legacy monolithic Run(), the fallible TryRun(), and a hand-driven
  // stage-by-stage execution must all produce byte-identical artifacts.
  const Dataset d = GenExampleGraph({});
  const TpGrGadOptions options = QuickOptions();
  const PipelineArtifacts via_run = TpGrGad(options).Run(d.graph);

  auto via_tryrun = TpGrGad(options).TryRun(d.graph);
  ASSERT_TRUE(via_tryrun.ok()) << via_tryrun.status().ToString();
  ExpectArtifactsIdentical(via_run, via_tryrun.value());

  PipelineArtifacts manual;
  manual.seed = options.seed;  // Provenance travels with the artifacts.
  auto anchors = RunAnchorStage(d.graph, options);
  ASSERT_TRUE(anchors.ok());
  manual.anchors = anchors.value().anchors;
  manual.gae_node_errors = anchors.value().node_errors;
  auto candidates = RunCandidateStage(d.graph, manual.anchors, options);
  ASSERT_TRUE(candidates.ok());
  manual.candidate_groups = candidates.value().groups;
  auto embedding =
      RunEmbeddingStage(d.graph, manual.candidate_groups, options);
  ASSERT_TRUE(embedding.ok());
  manual.group_embeddings = embedding.value().embeddings;
  manual.tpgcl_loss_history = embedding.value().loss_history;
  auto scoring = RunScoringStage(manual.group_embeddings,
                                 manual.candidate_groups, options);
  ASSERT_TRUE(scoring.ok());
  manual.group_scores = scoring.value().scores;
  manual.scored_groups = scoring.value().scored_groups;
  ExpectArtifactsIdentical(via_run, manual);
}

TEST(EngineStagesTest, BadInputsReturnStatusNotAbort) {
  const TpGrGadOptions options = QuickOptions();
  TpGrGad method(options);

  Graph empty;  // No nodes, no attributes.
  auto no_nodes = method.TryRun(empty);
  ASSERT_FALSE(no_nodes.ok());
  EXPECT_EQ(no_nodes.status().code(), StatusCode::kInvalidArgument);

  GraphBuilder builder(5);  // Nodes and edges but no attributes.
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  auto attrless = method.TryRun(builder.Build());
  ASSERT_FALSE(attrless.ok());
  EXPECT_EQ(attrless.status().code(), StatusCode::kInvalidArgument);

  GraphBuilder isolated(4);  // Attributed but edgeless: nothing to train on.
  auto edgeless = method.TryRun(isolated.Build(Matrix(4, 3, 0.5)));
  ASSERT_FALSE(edgeless.ok());
  EXPECT_EQ(edgeless.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineStagesTest, TooFewGroupsIsFailedPrecondition) {
  const Dataset d = GenExampleGraph({});
  const TpGrGadOptions options = QuickOptions();
  auto embedding = RunEmbeddingStage(d.graph, {{0, 1, 2}}, options);
  ASSERT_FALSE(embedding.ok());
  EXPECT_EQ(embedding.status().code(), StatusCode::kFailedPrecondition);

  auto scoring = RunScoringStage(Matrix(), {}, options);
  ASSERT_FALSE(scoring.ok());
  EXPECT_EQ(scoring.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EngineStagesTest, ScoringRejectsMisalignedInputs) {
  auto scoring = RunScoringStage(Matrix(3, 4), {{0, 1}, {2, 3}},
                                 QuickOptions());
  ASSERT_FALSE(scoring.ok());
  EXPECT_EQ(scoring.status().code(), StatusCode::kInvalidArgument);
}

// ---- RunContext: telemetry, progress, cancellation ---------------------------

TEST(RunContextTest, RecordsStageTimingsAndProgressEvents) {
  const Dataset d = GenExampleGraph({});
  RunContext ctx;
  std::vector<std::string> events;
  ctx.on_progress = [&events](const StageEvent& event) {
    events.push_back(event.stage + (event.finished ? ":done" : ":start"));
  };
  auto result = TpGrGad(QuickOptions()).TryRun(d.graph, &ctx);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ASSERT_EQ(ctx.stage_timings().size(), 4u);
  EXPECT_EQ(ctx.stage_timings()[0].stage, "anchors");
  EXPECT_EQ(ctx.stage_timings()[1].stage, "sampling");
  EXPECT_EQ(ctx.stage_timings()[2].stage, "embedding");
  EXPECT_EQ(ctx.stage_timings()[3].stage, "scoring");
  double total_seconds = 0.0;
  for (const StageTiming& t : ctx.stage_timings()) {
    EXPECT_GE(t.seconds, 0.0);
    total_seconds += t.seconds;
  }
  EXPECT_GT(total_seconds, 0.0);

  const std::vector<std::string> expected = {
      "anchors:start",   "anchors:done",  "sampling:start", "sampling:done",
      "embedding:start", "embedding:done", "scoring:start",  "scoring:done"};
  EXPECT_EQ(events, expected);
}

TEST(RunContextTest, ContextDoesNotChangeResults) {
  const Dataset d = GenExampleGraph({});
  RunContext ctx;
  auto with_ctx = TpGrGad(QuickOptions()).TryRun(d.graph, &ctx);
  auto without_ctx = TpGrGad(QuickOptions()).TryRun(d.graph);
  ASSERT_TRUE(with_ctx.ok());
  ASSERT_TRUE(without_ctx.ok());
  ExpectArtifactsIdentical(with_ctx.value(), without_ctx.value());
}

TEST(RunContextTest, PreCancelledRunReturnsCancelled) {
  const Dataset d = GenExampleGraph({});
  RunContext ctx;
  ctx.RequestCancel();
  auto result = TpGrGad(QuickOptions()).TryRun(d.graph, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_TRUE(ctx.stage_timings().empty());
}

TEST(RunContextTest, MidRunCancellationUnwindsCleanly) {
  // Cancel from the progress callback as the embedding stage starts: the
  // TPGCL training loop polls the token each epoch and bails out; the run
  // reports kCancelled and never reaches the scoring stage.
  const Dataset d = GenExampleGraph({});
  RunContext ctx;
  ctx.on_progress = [&ctx](const StageEvent& event) {
    if (event.stage == "embedding" && !event.finished) ctx.RequestCancel();
  };
  TpGrGadOptions options = QuickOptions();
  options.tpgcl.epochs = 10000;  // Would take minutes if not cancelled.
  auto result = TpGrGad(options).TryRun(d.graph, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  for (const StageTiming& t : ctx.stage_timings()) {
    EXPECT_NE(t.stage, "scoring");
  }
}

TEST(RunContextTest, CancellationFromAnotherThreadIsSafe) {
  const Dataset d = GenExampleGraph({});
  RunContext ctx;
  TpGrGadOptions options = QuickOptions();
  options.tpgcl.epochs = 10000;
  std::thread canceller([&ctx] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ctx.RequestCancel();
  });
  auto result = TpGrGad(options).TryRun(d.graph, &ctx);
  canceller.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
}

// ---- artifact persistence -----------------------------------------------------

TEST(ArtifactsTest, SaveLoadRoundTripIsExact) {
  const Dataset d = GenExampleGraph({});
  auto result = TpGrGad(QuickOptions()).TryRun(d.graph);
  ASSERT_TRUE(result.ok());
  const PipelineArtifacts& artifacts = result.value();

  const std::string dir = TempDir("roundtrip");
  ASSERT_TRUE(SaveArtifacts(artifacts, dir).ok());
  auto reloaded = LoadArtifacts(dir);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ExpectArtifactsIdentical(artifacts, reloaded.value());
  std::filesystem::remove_all(dir);
}

TEST(ArtifactsTest, RescoreAfterReloadMatchesOriginalScores) {
  // The headline Engine property: reload saved embeddings and re-run only
  // the scoring stage — same detector and seed give bit-identical scores.
  const Dataset d = GenExampleGraph({});
  const TpGrGadOptions options = QuickOptions();
  auto result = TpGrGad(options).TryRun(d.graph);
  ASSERT_TRUE(result.ok());

  const std::string dir = TempDir("rescore");
  ASSERT_TRUE(SaveArtifacts(result.value(), dir).ok());
  auto reloaded = LoadArtifacts(dir);
  ASSERT_TRUE(reloaded.ok());

  auto rescored =
      RescoreArtifacts(reloaded.value(), options.detector, options.seed);
  ASSERT_TRUE(rescored.ok()) << rescored.status().ToString();
  EXPECT_EQ(rescored.value().scores, result.value().group_scores);

  // Swapping the detector re-scores the same embeddings without training.
  auto swapped = RescoreArtifacts(reloaded.value(), DetectorKind::kEnsemble,
                                  options.seed);
  ASSERT_TRUE(swapped.ok()) << swapped.status().ToString();
  EXPECT_EQ(swapped.value().scores.size(), result.value().group_scores.size());
  std::filesystem::remove_all(dir);
}

TEST(ArtifactsTest, LoadFromMissingDirectoryIsNotFound) {
  auto missing = LoadArtifacts(TempDir("missing"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST(ArtifactsTest, RescoreWithoutEmbeddingsIsFailedPrecondition) {
  PipelineArtifacts artifacts;
  artifacts.candidate_groups = {{0, 1}, {2, 3}};
  auto rescored = RescoreArtifacts(artifacts, DetectorKind::kEcod, 42);
  ASSERT_FALSE(rescored.ok());
  EXPECT_EQ(rescored.status().code(), StatusCode::kFailedPrecondition);
}

// ---- method registry -----------------------------------------------------------

TEST(MethodRegistryTest, ListsAndConstructsEveryMethod) {
  const auto names = ListMethods();
  ASSERT_EQ(names.size(), 6u);
  for (const std::string& name : names) {
    auto method = MakeGroupDetector(name);
    ASSERT_TRUE(method.ok()) << name << ": " << method.status().ToString();
    ASSERT_NE(method.value(), nullptr) << name;
    EXPECT_FALSE(method.value()->Name().empty()) << name;

    auto keys = MethodOptionKeys(name);
    ASSERT_TRUE(keys.ok()) << name;
    EXPECT_FALSE(keys.value().empty()) << name;
  }
}

TEST(MethodRegistryTest, UnknownNameIsNotFound) {
  auto method = MakeGroupDetector("no-such-method");
  ASSERT_FALSE(method.ok());
  EXPECT_EQ(method.status().code(), StatusCode::kNotFound);
  auto keys = MethodOptionKeys("no-such-method");
  ASSERT_FALSE(keys.ok());
  EXPECT_EQ(keys.status().code(), StatusCode::kNotFound);
}

TEST(MethodRegistryTest, RegistryTpGrGadMatchesHandWiredOptions) {
  MethodOptions method_options;
  method_options.seed = 7;
  method_options.overrides = {
      "mh_gae.epochs=10",     "mh_gae.hidden_dim=32", "mh_gae.embed_dim=16",
      "mh_gae.anchor_fraction=0.15", "tpgcl.epochs=8", "tpgcl.hidden_dim=32",
      "tpgcl.embed_dim=16"};
  auto method = MakeGroupDetector("tp-grgad", method_options);
  ASSERT_TRUE(method.ok()) << method.status().ToString();
  const auto* tp = dynamic_cast<const TpGrGad*>(method.value().get());
  ASSERT_NE(tp, nullptr);

  const TpGrGadOptions expected = QuickOptions(7);
  EXPECT_EQ(tp->options().seed, expected.seed);
  EXPECT_EQ(tp->options().mh_gae.base.seed, expected.mh_gae.base.seed);
  EXPECT_EQ(tp->options().mh_gae.base.epochs, expected.mh_gae.base.epochs);
  EXPECT_EQ(tp->options().mh_gae.anchor_fraction,
            expected.mh_gae.anchor_fraction);
  EXPECT_EQ(tp->options().tpgcl.seed, expected.tpgcl.seed);
  EXPECT_EQ(tp->options().tpgcl.epochs, expected.tpgcl.epochs);
  EXPECT_EQ(tp->options().tpgcl.embed_dim, expected.tpgcl.embed_dim);
}

TEST(MethodRegistryTest, BadOverridesAreInvalidArgument) {
  MethodOptions method_options;
  method_options.overrides = {"no.such.key=3"};
  auto unknown_key = MakeGroupDetector("tp-grgad", method_options);
  ASSERT_FALSE(unknown_key.ok());
  EXPECT_EQ(unknown_key.status().code(), StatusCode::kInvalidArgument);

  method_options.overrides = {"tpgcl.epochs=banana"};
  auto bad_value = MakeGroupDetector("tp-grgad", method_options);
  ASSERT_FALSE(bad_value.ok());
  EXPECT_EQ(bad_value.status().code(), StatusCode::kInvalidArgument);

  method_options.overrides = {"not-an-assignment"};
  auto no_equals = MakeGroupDetector("deepfd", method_options);
  ASSERT_FALSE(no_equals.ok());
  EXPECT_EQ(no_equals.status().code(), StatusCode::kInvalidArgument);
}

// ---- option map ------------------------------------------------------------------

TEST(OptionMapTest, ParsesEveryBoundType) {
  TpGrGadOptions options;
  ASSERT_TRUE(ApplyTpGrGadOverrides(
                  &options, {"tpgcl.epochs=30", "mh_gae.lr=0.01",
                             "disable_tpgcl=true", "detector=ensemble",
                             "sampler.max_groups=500", "seed=99",
                             "mh_gae.target=A^5", "tpgcl.positive_aug=ND",
                             "sampler.path_mode=graphsnn"})
                  .ok());
  EXPECT_EQ(options.tpgcl.epochs, 30);
  EXPECT_DOUBLE_EQ(options.mh_gae.base.lr, 0.01);
  EXPECT_TRUE(options.disable_tpgcl);
  EXPECT_EQ(options.detector, DetectorKind::kEnsemble);
  EXPECT_EQ(options.sampler.max_groups, 500);
  EXPECT_EQ(options.seed, 99u);
  // "seed" re-propagates into the stage seeds, like the constructor.
  EXPECT_EQ(options.mh_gae.base.seed, 99u ^ 0x1);
  EXPECT_EQ(options.tpgcl.seed, 99u ^ 0x2);
  EXPECT_EQ(options.mh_gae.base.target, ReconTarget::kPower5);
  EXPECT_EQ(options.tpgcl.positive_aug, AugmentationKind::kNodeDrop);
  EXPECT_EQ(options.sampler.path_mode, PathSearchMode::kGraphSnnWeighted);
}

TEST(OptionMapTest, SeedOverrideKeepsExplicitStageSeedsEitherOrder) {
  // "seed" must never clobber an explicit stage-seed override, no matter
  // which order the two assignments appear in.
  TpGrGadOptions before_seed;
  ASSERT_TRUE(
      ApplyTpGrGadOverrides(&before_seed, {"tpgcl.seed=123", "seed=9"}).ok());
  EXPECT_EQ(before_seed.tpgcl.seed, 123u);
  EXPECT_EQ(before_seed.mh_gae.base.seed, 9u ^ 0x1);

  TpGrGadOptions after_seed;
  ASSERT_TRUE(
      ApplyTpGrGadOverrides(&after_seed, {"seed=9", "tpgcl.seed=123"}).ok());
  EXPECT_EQ(after_seed.tpgcl.seed, 123u);
  EXPECT_EQ(after_seed.mh_gae.base.seed, 9u ^ 0x1);
}

TEST(OptionMapTest, RejectsNegativeUnsignedAndOverflow) {
  TpGrGadOptions options;
  EXPECT_EQ(ApplyTpGrGadOverrides(&options, {"seed=-1"}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ApplyTpGrGadOverrides(&options, {"tpgcl.epochs=4294967296"})
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ApplyTpGrGadOverrides(&options, {"mh_gae.lr=1e999"}).code(),
            StatusCode::kInvalidArgument);
}

TEST(OptionMapTest, UnknownKeyListsKnownOptions) {
  TpGrGadOptions options;
  const Status status = ApplyTpGrGadOverrides(&options, {"bogus=1"});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("tpgcl.epochs"), std::string::npos);
}

TEST(OptionMapTest, StatusCancelledHasName) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kCancelled), "Cancelled");
  EXPECT_EQ(Status::Cancelled("x").code(), StatusCode::kCancelled);
}

}  // namespace
}  // namespace grgad
