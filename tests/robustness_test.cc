// Fault-tolerance contracts: deadlines, stop reasons, retry backoff, arena
// budgets, ensemble degradation, deterministic fault injection, and the
// crash-safety of the two checksummed directory stores — SaveArtifacts/
// LoadArtifacts and SaveServeSnapshot/LoadServeSnapshot (pinned on-disk
// bytes, atomic replace, corruption detection, strict payload parsing).
// Companion to tests/fault_stress_test.cc, which sweeps many fault seeds;
// here each failure mode is pinned down individually.
#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/core/artifacts.h"
#include "src/core/method_registry.h"
#include "src/core/pipeline.h"
#include "src/core/run_context.h"
#include "src/core/stages.h"
#include "src/data/example_graph.h"
#include "src/graph/graph.h"
#include "src/od/ecod.h"
#include "src/od/ensemble.h"
#include "src/od/iforest.h"
#include "src/od/lof.h"
#include "src/serve/wal.h"
#include "src/tensor/arena.h"
#include "src/tensor/matrix.h"
#include "src/util/atomic_io.h"
#include "src/util/cancel.h"
#include "src/util/fault.h"
#include "src/util/retry.h"
#include "src/util/status.h"

namespace grgad {
namespace {

namespace fs = std::filesystem;

TpGrGadOptions QuickOptions(uint64_t seed = 42) {
  TpGrGadOptions options;
  options.seed = seed;
  options.mh_gae.base.epochs = 15;
  options.mh_gae.base.hidden_dim = 32;
  options.mh_gae.base.embed_dim = 16;
  options.mh_gae.anchor_fraction = 0.15;
  options.tpgcl.epochs = 10;
  options.tpgcl.hidden_dim = 32;
  options.tpgcl.embed_dim = 16;
  options.ReseedStages();
  return options;
}

fs::path TempDir(const std::string& name) {
  const fs::path dir =
      fs::temp_directory_path() / ("grgad_robustness_test_" + name);
  fs::remove_all(dir);
  return dir;
}

PipelineArtifacts SmallArtifacts(double salt = 0.0) {
  PipelineArtifacts a;
  a.seed = 7;
  a.anchors = {1, 4, 9};
  a.candidate_groups = {{0, 1, 2}, {3, 4}, {7, 8, 9}};
  a.group_embeddings = Matrix(3, 2);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      a.group_embeddings(i, j) = 0.25 * static_cast<double>(i * 2 + j) + salt;
    }
  }
  a.group_scores = {0.5 + salt, 1.5 + salt, -0.25 + salt};
  a.scored_groups = {{{7, 8, 9}, 1.5 + salt}, {{0, 1, 2}, 0.5 + salt}};
  a.gae_node_errors = {0.1, 0.2, 0.3 + salt};
  a.tpgcl_loss_history = {2.0, 1.0, 0.5 - salt};
  return a;
}

void ExpectArtifactsEqual(const PipelineArtifacts& a,
                          const PipelineArtifacts& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.anchors, b.anchors);
  EXPECT_EQ(a.candidate_groups, b.candidate_groups);
  ASSERT_EQ(a.group_embeddings.rows(), b.group_embeddings.rows());
  ASSERT_EQ(a.group_embeddings.cols(), b.group_embeddings.cols());
  for (size_t i = 0; i < a.group_embeddings.rows(); ++i) {
    for (size_t j = 0; j < a.group_embeddings.cols(); ++j) {
      EXPECT_EQ(a.group_embeddings(i, j), b.group_embeddings(i, j));
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

/// Every test that arms the global injector inherits this so a failing
/// assertion cannot leak faults into later tests.
class FaultFixture : public ::testing::Test {
 protected:
  void TearDown() override { FaultInjector::Global().Disable(); }
};

// ---- status codes -----------------------------------------------------------

TEST(StatusRobustnessTest, NewCodesHaveNamesAndFactories) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "DeadlineExceeded");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDataLoss), "DataLoss");
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::DataLoss("x").code(), StatusCode::kDataLoss);
}

// ---- cancel token: deadlines and stop reasons -------------------------------

TEST(CancelTokenTest, DeadlineExpiryReportsDeadlineExceeded) {
  CancelToken token;
  EXPECT_FALSE(token.stop_requested());
  EXPECT_EQ(token.stop_reason(), StopReason::kNone);
  token.SetDeadlineAfter(3600.0);
  EXPECT_TRUE(token.has_deadline());
  EXPECT_FALSE(token.stop_requested());
  token.SetDeadlineAfter(-1.0);  // Already in the past: trips immediately.
  EXPECT_TRUE(token.stop_requested());
  EXPECT_EQ(token.stop_reason(), StopReason::kDeadlineExceeded);
}

TEST(CancelTokenTest, ClearDeadlineDisarms) {
  CancelToken token;
  token.SetDeadlineAfter(-1.0);
  EXPECT_TRUE(token.stop_requested());
  token.ClearDeadline();
  EXPECT_FALSE(token.has_deadline());
  EXPECT_FALSE(token.stop_requested());
  EXPECT_EQ(token.stop_reason(), StopReason::kNone);
}

TEST(CancelTokenTest, FirstExplicitReasonWins) {
  CancelToken token;
  token.RequestStop(StopReason::kResourceExhausted);
  token.RequestCancel();  // Later explicit reason must not overwrite.
  token.SetDeadlineAfter(-1.0);
  EXPECT_EQ(token.stop_reason(), StopReason::kResourceExhausted);

  CancelToken cancelled;
  cancelled.SetDeadlineAfter(-1.0);  // Deadline passed, but then...
  cancelled.RequestCancel();         // ...an explicit cancel arrives.
  EXPECT_EQ(cancelled.stop_reason(), StopReason::kCancelled);
}

TEST(CancelTokenTest, CopiesAliasOneState) {
  CancelToken a;
  CancelToken b = a;
  b.RequestCancel();
  EXPECT_TRUE(a.stop_requested());
  EXPECT_TRUE(a.cancelled());  // Legacy alias covers every stop reason.
}

TEST(PipelineDeadlineTest, ExpiredDeadlineReturnsDeadlineExceeded) {
  const Dataset d = GenExampleGraph({});
  RunContext ctx;
  ctx.SetDeadlineAfter(0.0);  // Trips at the first poll.
  const auto result = TpGrGad(QuickOptions()).TryRun(d.graph, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(ctx.stop_reason(), StopReason::kDeadlineExceeded);
}

// ---- retry ------------------------------------------------------------------

TEST(RetryTest, BackoffSequenceIsDeterministicAndCapped) {
  RetryPolicy policy;
  policy.initial_backoff_seconds = 0.1;
  policy.max_backoff_seconds = 0.35;
  policy.backoff_multiplier = 2.0;
  policy.jitter_fraction = 0.25;
  Rng rng_a(policy.jitter_seed);
  Rng rng_b(policy.jitter_seed);
  for (int attempt = 0; attempt < 6; ++attempt) {
    const double a = BackoffSeconds(policy, attempt, &rng_a);
    const double b = BackoffSeconds(policy, attempt, &rng_b);
    EXPECT_EQ(a, b) << "jitter stream must be seed-deterministic";
    const double base = std::min(0.1 * std::pow(2.0, attempt), 0.35);
    EXPECT_GE(a, base * 0.75);
    EXPECT_LE(a, base * 1.25);
  }
}

TEST(RetryTest, RetriesIoErrorUntilSuccess) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  Retryer retryer(policy);
  std::vector<double> sleeps;
  retryer.set_sleeper([&](double s) { sleeps.push_back(s); });
  int calls = 0;
  const Status s = retryer.Run([&] {
    ++calls;
    return calls < 3 ? Status::IoError("flaky") : Status::Ok();
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(sleeps.size(), 2u);
  EXPECT_EQ(retryer.attempts(), 3);
}

TEST(RetryTest, NonRetryableErrorSurfacesImmediately) {
  Retryer retryer(RetryPolicy{});
  retryer.set_sleeper([](double) { FAIL() << "must not sleep"; });
  int calls = 0;
  const Status s = retryer.Run([&] {
    ++calls;
    return Status::DataLoss("corrupt");
  });
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_EQ(calls, 1);
}

TEST(RetryTest, ExhaustionReturnsLastError) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  Retryer retryer(policy);
  retryer.set_sleeper([](double) {});
  int calls = 0;
  const Status s = retryer.Run([&] {
    ++calls;
    return Status::IoError("attempt " + std::to_string(calls));
  });
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_NE(s.message().find("attempt 3"), std::string::npos);
  EXPECT_EQ(calls, 3);
}

TEST(RetryTest, RunResultRetriesAndReturnsValue) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  Retryer retryer(policy);
  retryer.set_sleeper([](double) {});
  int calls = 0;
  const Result<int> r = retryer.RunResult<int>([&]() -> Result<int> {
    ++calls;
    if (calls < 2) return Status::IoError("flaky");
    return 41 + 1;
  });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(calls, 2);
}

// ---- arena byte budget ------------------------------------------------------

TEST(ArenaBudgetTest, BreachFiresResourceExhaustedOnToken) {
  MatrixArena arena;
  CancelToken token;
  arena.SetByteBudget(64);
  arena.SetStopToken(token);
  Matrix small = arena.Acquire(2, 2);  // 32 bytes: within budget.
  EXPECT_FALSE(token.stop_requested());
  EXPECT_FALSE(arena.budget_exhausted());
  Matrix big = arena.Acquire(16, 16);  // 2048 bytes: breach.
  EXPECT_EQ(big.rows(), 16u) << "breaching alloc still succeeds";
  EXPECT_TRUE(arena.budget_exhausted());
  EXPECT_TRUE(token.stop_requested());
  EXPECT_EQ(token.stop_reason(), StopReason::kResourceExhausted);
}

TEST(PipelineBudgetTest, TinyArenaBudgetUnwindsAsResourceExhausted) {
  const Dataset d = GenExampleGraph({});
  TpGrGadOptions options = QuickOptions();
  options.mh_gae.base.arena_byte_budget = 1;  // Breached on the first alloc.
  RunContext ctx;
  const auto result = TpGrGad(options).TryRun(d.graph, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ctx.stop_reason(), StopReason::kResourceExhausted);
}

TEST(PipelineBudgetTest, TpgclArenaBudgetUnwindsAsResourceExhausted) {
  const Dataset d = GenExampleGraph({});
  TpGrGadOptions options = QuickOptions();
  ASSERT_TRUE(
      ApplyTpGrGadOverrides(&options, {"tpgcl.arena_byte_budget=1"}).ok());
  RunContext ctx;
  const auto result = TpGrGad(options).TryRun(d.graph, &ctx);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(result.status().message().find("embedding"), std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(ctx.stop_reason(), StopReason::kResourceExhausted);
}

// ---- ensemble degradation ---------------------------------------------------

Matrix EnsembleInput(size_t rows = 48, size_t cols = 4) {
  Matrix x(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      x(i, j) = std::sin(static_cast<double>(i * cols + j) * 0.7);
    }
  }
  x(0, 0) = 25.0;  // One blatant outlier keeps the detectors non-degenerate.
  return x;
}

TEST_F(FaultFixture, EnsembleAllMembersFailingIsAStageError) {
  ASSERT_TRUE(
      FaultInjector::Global().Configure("seed=3,od/ensemble-member=1").ok());
  const Matrix x = EnsembleInput();
  TpGrGadOptions options;
  options.detector = DetectorKind::kEnsemble;
  std::vector<std::vector<int>> groups(x.rows(), std::vector<int>{0});
  const auto result = RunScoringStage(x, groups, options);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
  EXPECT_NE(result.status().message().find("ensemble"), std::string::npos);
}

TEST_F(FaultFixture, EnsembleDropsFailedMemberAndAveragesSurvivors) {
  const Matrix x = EnsembleInput();

  // Find a fault seed where exactly one member of the three fails.
  int failed_index = -1;
  std::vector<double> degraded;
  for (uint64_t seed = 0; seed < 200 && failed_index < 0; ++seed) {
    ASSERT_TRUE(FaultInjector::Global()
                    .Configure("seed=" + std::to_string(seed) +
                               ",od/ensemble-member=0.5")
                    .ok());
    auto ensemble = EnsembleDetector::MakeDefault(7);
    degraded = ensemble->FitScore(x);
    if (ensemble->survivors() != 2) continue;
    const auto& statuses = ensemble->member_statuses();
    ASSERT_EQ(statuses.size(), 3u);
    for (int i = 0; i < 3; ++i) {
      if (!statuses[i].status.ok()) failed_index = i;
    }
  }
  FaultInjector::Global().Disable();
  ASSERT_GE(failed_index, 0) << "no seed produced exactly one failed member";

  // The degraded scores must equal a fault-free ensemble built from only
  // the two surviving members (same member order and seeds as MakeDefault).
  std::vector<std::unique_ptr<OutlierDetector>> survivors;
  if (failed_index != 0) survivors.push_back(std::make_unique<Ecod>());
  if (failed_index != 1) survivors.push_back(std::make_unique<Lof>());
  if (failed_index != 2) {
    IsolationForestOptions iforest;
    iforest.seed = 7;
    survivors.push_back(std::make_unique<IsolationForest>(iforest));
  }
  EnsembleDetector manual(std::move(survivors));
  const std::vector<double> expected = manual.FitScore(x);
  ASSERT_EQ(degraded.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(degraded[i], expected[i]) << "row " << i;
  }
}

TEST_F(FaultFixture, EnsembleNoFaultRunMatchesPlainRunBitwise) {
  const Matrix x = EnsembleInput();
  auto plain = EnsembleDetector::MakeDefault(7);
  const std::vector<double> baseline = plain->FitScore(x);

  // Injector armed but with the ensemble point at rate 0: the degradation
  // plumbing must not perturb the no-fault result.
  ASSERT_TRUE(
      FaultInjector::Global().Configure("seed=1,artifact/write=1").ok());
  auto guarded = EnsembleDetector::MakeDefault(7);
  const std::vector<double> scores = guarded->FitScore(x);
  EXPECT_EQ(guarded->survivors(), 3u);
  ASSERT_EQ(scores.size(), baseline.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    EXPECT_EQ(scores[i], baseline[i]);
  }
}

// ---- fault injector ---------------------------------------------------------

TEST_F(FaultFixture, SameSeedSameDecisionSequence) {
  auto& injector = FaultInjector::Global();
  ASSERT_TRUE(injector.Configure("seed=9,rate=0.5").ok());
  std::vector<bool> first;
  for (int i = 0; i < 64; ++i) first.push_back(injector.Fires("stage/anchors"));
  ASSERT_TRUE(injector.Configure("seed=9,rate=0.5").ok());
  std::vector<bool> second;
  for (int i = 0; i < 64; ++i) {
    second.push_back(injector.Fires("stage/anchors"));
  }
  EXPECT_EQ(first, second);
  // Not a degenerate all-or-nothing stream.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), true), 64);
}

TEST_F(FaultFixture, PerPointRatesAreIndependent) {
  auto& injector = FaultInjector::Global();
  ASSERT_TRUE(injector.Configure("seed=5,artifact/write=1").ok());
  EXPECT_TRUE(injector.Fires("artifact/write"));
  EXPECT_FALSE(injector.Fires("artifact/read"));
  const Status s = injector.Check("artifact/write", StatusCode::kIoError);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_NE(s.message().find("artifact/write"), std::string::npos);
}

TEST_F(FaultFixture, SpecValidation) {
  auto& injector = FaultInjector::Global();
  EXPECT_FALSE(injector.Configure("bogus/point=0.5").ok());
  EXPECT_FALSE(injector.Configure("rate=1.5").ok());
  EXPECT_FALSE(injector.Configure("rate").ok());
  EXPECT_TRUE(injector.Configure("off").ok());
  EXPECT_FALSE(injector.enabled());
  EXPECT_TRUE(injector.Configure("seed=4").ok());
  EXPECT_FALSE(injector.enabled()) << "seed-only spec arms nothing";
  EXPECT_TRUE(injector.Configure("seed=4,rate=0.1").ok());
  EXPECT_TRUE(injector.enabled());
  EXPECT_FALSE(FaultInjector::KnownPoints().empty());
}

TEST_F(FaultFixture, DisabledInjectorNeverFires) {
  auto& injector = FaultInjector::Global();
  ASSERT_TRUE(injector.Configure("off").ok());
  for (const std::string& point : FaultInjector::KnownPoints()) {
    EXPECT_FALSE(injector.Fires(point.c_str()));
    EXPECT_TRUE(injector.Check(point.c_str()).ok());
  }
}

// ---- atomic artifact save ---------------------------------------------------

TEST_F(FaultFixture, FailedOverwriteLeavesOldArtifactsLoadable) {
  for (const char* fault : {"artifact/write=1", "artifact/fsync=1",
                            "artifact/rename=1"}) {
    const fs::path dir = TempDir("overwrite");
    const PipelineArtifacts original = SmallArtifacts(0.0);
    ASSERT_TRUE(SaveArtifacts(original, dir.string()).ok());

    ASSERT_TRUE(FaultInjector::Global()
                    .Configure(std::string("seed=1,") + fault)
                    .ok());
    const Status save = SaveArtifacts(SmallArtifacts(10.0), dir.string());
    FaultInjector::Global().Disable();
    EXPECT_FALSE(save.ok()) << fault;

    // The failed save must leave no staging residue and the previous
    // artifacts fully intact.
    EXPECT_FALSE(fs::exists(dir.string() + ".tmp")) << fault;
    EXPECT_FALSE(fs::exists(dir.string() + ".old")) << fault;
    const auto loaded = LoadArtifacts(dir.string());
    ASSERT_TRUE(loaded.ok()) << fault << ": " << loaded.status().ToString();
    ExpectArtifactsEqual(loaded.value(), original);
    fs::remove_all(dir);
  }
}

TEST_F(FaultFixture, FailedFreshSaveLeavesNothing) {
  const fs::path dir = TempDir("fresh_fail");
  ASSERT_TRUE(
      FaultInjector::Global().Configure("seed=1,artifact/write=1").ok());
  EXPECT_FALSE(SaveArtifacts(SmallArtifacts(), dir.string()).ok());
  FaultInjector::Global().Disable();
  EXPECT_FALSE(fs::exists(dir));
  EXPECT_FALSE(fs::exists(dir.string() + ".tmp"));
  const auto loaded = LoadArtifacts(dir.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(ArtifactAtomicityTest, SuccessfulOverwriteReplacesAndCleansUp) {
  const fs::path dir = TempDir("replace");
  ASSERT_TRUE(SaveArtifacts(SmallArtifacts(0.0), dir.string()).ok());
  const PipelineArtifacts next = SmallArtifacts(3.5);
  ASSERT_TRUE(SaveArtifacts(next, dir.string()).ok());
  EXPECT_FALSE(fs::exists(dir.string() + ".tmp"));
  EXPECT_FALSE(fs::exists(dir.string() + ".old"));
  const auto loaded = LoadArtifacts(dir.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectArtifactsEqual(loaded.value(), next);
  fs::remove_all(dir);
}

// ---- corruption detection ---------------------------------------------------

std::vector<std::string> ArtifactFileNames() {
  return {"manifest.txt",      "anchors.txt",     "groups.txt",
          "embeddings.txt",    "scores.txt",      "scored_groups.txt",
          "node_errors.txt",   "tpgcl_loss.txt"};
}

std::string ReadAll(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const fs::path& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

TEST(ArtifactCorruptionTest, EveryFileEveryCorruptionYieldsTypedError) {
  const fs::path dir = TempDir("corruption");
  ASSERT_TRUE(SaveArtifacts(SmallArtifacts(), dir.string()).ok());

  for (const std::string& name : ArtifactFileNames()) {
    const fs::path target = dir / name;
    ASSERT_TRUE(fs::exists(target)) << name;
    const std::string pristine = ReadAll(target);
    ASSERT_GT(pristine.size(), 4u) << name;

    for (const char* mode : {"truncate", "flip", "remove"}) {
      if (std::string(mode) == "truncate") {
        WriteAll(target, pristine.substr(0, pristine.size() - 3));
      } else if (std::string(mode) == "flip") {
        std::string flipped = pristine;
        flipped[flipped.size() / 2] ^= 0x01;
        WriteAll(target, flipped);
      } else {
        fs::remove(target);
      }

      const auto loaded = LoadArtifacts(dir.string());
      ASSERT_FALSE(loaded.ok()) << name << " " << mode;
      const Status& s = loaded.status();
      if (name == "manifest.txt") {
        // Manifest damage surfaces as whatever layer notices first (missing
        // manifest, malformed header, or a stale checksum), never a crash.
        EXPECT_NE(s.code(), StatusCode::kOk) << mode;
      } else {
        EXPECT_EQ(s.code(), StatusCode::kDataLoss) << name << " " << mode;
        EXPECT_NE(s.message().find(name), std::string::npos)
            << name << " " << mode << ": " << s.ToString();
      }

      WriteAll(target, pristine);  // Restore for the next mode.
    }
  }
  // Restored directory loads again.
  EXPECT_TRUE(LoadArtifacts(dir.string()).ok());
  fs::remove_all(dir);
}

TEST(ArtifactCorruptionTest, ManifestCountMismatchIsDataLoss) {
  const fs::path dir = TempDir("count_mismatch");
  ASSERT_TRUE(SaveArtifacts(SmallArtifacts(), dir.string()).ok());
  const fs::path manifest = dir / "manifest.txt";
  std::string text = ReadAll(manifest);
  const std::string key = "num_anchors ";
  const size_t pos = text.find(key);
  ASSERT_NE(pos, std::string::npos);
  // The manifest itself is not checksummed, so an inflated count must be
  // caught by the parse-time cross-check, not the integrity sweep.
  text.replace(pos, key.size() + 1, key + "9");
  WriteAll(manifest, text);
  const auto loaded = LoadArtifacts(dir.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("num_anchors"), std::string::npos);
  fs::remove_all(dir);
}

TEST(ArtifactCorruptionTest, MissingDirectoryIsNotFound) {
  const fs::path dir = TempDir("never_created");
  const auto loaded = LoadArtifacts(dir.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

/// Rewrites `name` under artifact directory `dir` and re-records its size
/// and checksum in the manifest, so only the payload parser can object.
void RewriteListedFile(const fs::path& dir, const std::string& name,
                       const std::string& content) {
  WriteAll(dir / name, content);
  std::istringstream in(ReadAll(dir / "manifest.txt"));
  std::string manifest;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("file " + name + " ", 0) == 0) {
      line = "file " + name + " " + std::to_string(content.size()) + " " +
             HexU64(Fnv1a64(content));
    }
    manifest += line + "\n";
  }
  WriteAll(dir / "manifest.txt", manifest);
}

TEST(ArtifactCorruptionTest, MalformedPayloadTokenIsTypedError) {
  const fs::path dir = TempDir("malformed_token");
  ASSERT_TRUE(SaveArtifacts(SmallArtifacts(), dir.string()).ok());
  const std::string scored = ReadAll(dir / "scored_groups.txt");
  const std::string embeddings = ReadAll(dir / "embeddings.txt");

  // A bad node id mid-row must not silently truncate the group.
  std::string edited = scored;
  const size_t row1 = edited.find('\n') + 1;
  edited.replace(row1, edited.find('\n', row1) - row1,
                 "61.349178714970229 0 x7 5 1878");
  RewriteListedFile(dir, "scored_groups.txt", edited);
  auto loaded = LoadArtifacts(dir.string());
  ASSERT_FALSE(loaded.ok()) << "bad node id loaded as a shorter group";
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("scored_groups.txt"),
            std::string::npos)
      << loaded.status().ToString();
  RewriteListedFile(dir, "scored_groups.txt", scored);
  ASSERT_TRUE(LoadArtifacts(dir.string()).ok());

  // Every payload rejects data past its declared shape.
  RewriteListedFile(dir, "embeddings.txt", embeddings + "0.5\n");
  loaded = LoadArtifacts(dir.string());
  ASSERT_FALSE(loaded.ok()) << "trailing matrix token was ignored";
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("embeddings.txt"),
            std::string::npos)
      << loaded.status().ToString();
  fs::remove_all(dir);
}

TEST(ArtifactCorruptionTest, V1ManifestIsUnsupported) {
  const fs::path dir = TempDir("v1_manifest");
  ASSERT_TRUE(SaveArtifacts(SmallArtifacts(), dir.string()).ok());
  // A v1 header with every payload still present: the format is gone, not
  // merely unverifiable.
  WriteAll(dir / "manifest.txt", "grgad_artifacts_version 1\nseed 7\n");
  const auto loaded = LoadArtifacts(dir.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("unsupported artifact version"),
            std::string::npos)
      << loaded.status().ToString();
  fs::remove_all(dir);
}

TEST(ArtifactCorruptionTest, MissingCountKeyIsDataLoss) {
  const fs::path dir = TempDir("missing_count");
  ASSERT_TRUE(SaveArtifacts(SmallArtifacts(), dir.string()).ok());
  std::string text = ReadAll(dir / "manifest.txt");
  const size_t pos = text.find("num_scores ");
  ASSERT_NE(pos, std::string::npos);
  text.erase(pos, text.find('\n', pos) + 1 - pos);
  WriteAll(dir / "manifest.txt", text);
  const auto loaded = LoadArtifacts(dir.string());
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(loaded.status().message().find("num_scores"), std::string::npos)
      << loaded.status().ToString();
  fs::remove_all(dir);
}

TEST(ArtifactCorruptionTest, MalformedManifestLineIsDataLoss) {
  const fs::path dir = TempDir("malformed_manifest");
  ASSERT_TRUE(SaveArtifacts(SmallArtifacts(), dir.string()).ok());
  const std::string pristine = ReadAll(dir / "manifest.txt");
  const std::string anchors = ReadAll(dir / "anchors.txt");
  const std::string anchors_entry = "file anchors.txt " +
                                    std::to_string(anchors.size()) + " " +
                                    HexU64(Fnv1a64(anchors));
  ASSERT_NE(pristine.find(anchors_entry), std::string::npos);
  const std::vector<std::pair<std::string, std::string>> edits = {
      {"seed 7\n", "seed 7 8\n"},               // Extra token on a key line.
      {"seed 7\n", "seed\n"},                   // Key without a value.
      {anchors_entry, "file anchors.txt 6"},    // Entry without checksum.
      {anchors_entry, anchors_entry + " x"},    // Entry with trailing data.
      {anchors_entry, "file ../anchors.txt 0 cbf29ce484222325"},  // Escape.
  };
  for (const auto& [from, to] : edits) {
    std::string text = pristine;
    text.replace(text.find(from), from.size(), to);
    WriteAll(dir / "manifest.txt", text);
    const auto loaded = LoadArtifacts(dir.string());
    ASSERT_FALSE(loaded.ok()) << to;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << to << ": " << loaded.status().ToString();
  }
  fs::remove_all(dir);
}

// ---- on-disk format ---------------------------------------------------------

/// FNV-1a 64 of every file under `dir`, keyed by path relative to it.
std::vector<std::pair<std::string, std::string>> FileChecksums(
    const fs::path& dir) {
  std::vector<std::pair<std::string, std::string>> sums;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    sums.emplace_back(fs::relative(entry.path(), dir).string(),
                      HexU64(Fnv1a64(ReadAll(entry.path()))));
  }
  std::sort(sums.begin(), sums.end());
  return sums;
}

TEST(ArtifactFormatTest, SavedBytesArePinned) {
  const fs::path dir = TempDir("format_golden");
  ASSERT_TRUE(SaveArtifacts(SmallArtifacts(), dir.string()).ok());
  const std::vector<std::pair<std::string, std::string>> golden = {
      {"anchors.txt", "b64cc60121dd45c5"},
      {"embeddings.txt", "d39006e0abaaf1ab"},
      {"groups.txt", "ecf8c78097f7b8fe"},
      {"manifest.txt", "26631d75b3a48ffb"},
      {"node_errors.txt", "7c94efed8e206a6a"},
      {"scored_groups.txt", "fa1fb8c8f6062053"},
      {"scores.txt", "a52a99ca18568128"},
      {"tpgcl_loss.txt", "974d779d061a8451"},
  };
  EXPECT_EQ(FileChecksums(dir), golden);
  fs::remove_all(dir);
}

uint64_t Bits(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

std::vector<uint64_t> Bits(const std::vector<double>& v) {
  std::vector<uint64_t> out;
  for (double x : v) out.push_back(Bits(x));
  return out;
}

void ExpectArtifactsBitwiseEqual(const PipelineArtifacts& a,
                                 const PipelineArtifacts& b) {
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.anchors, b.anchors);
  EXPECT_EQ(a.candidate_groups, b.candidate_groups);
  ASSERT_EQ(a.group_embeddings.rows(), b.group_embeddings.rows());
  ASSERT_EQ(a.group_embeddings.cols(), b.group_embeddings.cols());
  for (size_t i = 0; i < a.group_embeddings.rows(); ++i) {
    for (size_t j = 0; j < a.group_embeddings.cols(); ++j) {
      EXPECT_EQ(Bits(a.group_embeddings(i, j)), Bits(b.group_embeddings(i, j)))
          << i << "," << j;
    }
  }
  EXPECT_EQ(Bits(a.group_scores), Bits(b.group_scores));
  ASSERT_EQ(a.scored_groups.size(), b.scored_groups.size());
  for (size_t i = 0; i < a.scored_groups.size(); ++i) {
    EXPECT_EQ(a.scored_groups[i].nodes, b.scored_groups[i].nodes);
    EXPECT_EQ(Bits(a.scored_groups[i].score), Bits(b.scored_groups[i].score));
  }
  EXPECT_EQ(Bits(a.gae_node_errors), Bits(b.gae_node_errors));
  EXPECT_EQ(Bits(a.tpgcl_loss_history), Bits(b.tpgcl_loss_history));
}

TEST(ArtifactFormatTest, EdgeValuesRoundTripBitwise) {
  using Limits = std::numeric_limits<double>;
  const std::vector<double> edges = {
      0.0,           -0.0,           Limits::denorm_min(), DBL_MAX,
      Limits::infinity(), -Limits::infinity(), Limits::quiet_NaN(),
      -Limits::quiet_NaN()};
  PipelineArtifacts a;
  a.seed = UINT64_MAX;
  a.anchors = {0, INT_MAX};
  a.candidate_groups = {{1, 2}, {}, {3}};
  a.group_embeddings = Matrix(2, edges.size());
  for (size_t j = 0; j < edges.size(); ++j) {
    a.group_embeddings(0, j) = edges[j];
    a.group_embeddings(1, j) = -edges[j];
  }
  a.group_scores = edges;
  for (double v : edges) a.scored_groups.push_back({{}, v});
  a.scored_groups.push_back({{INT_MIN, 0, 5}, 1.0});
  a.gae_node_errors = edges;
  a.tpgcl_loss_history = edges;

  const fs::path dir = TempDir("edge_values");
  ASSERT_TRUE(SaveArtifacts(a, dir.string()).ok());
  auto loaded = LoadArtifacts(dir.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectArtifactsBitwiseEqual(loaded.value(), a);

  // Zero groups (and nothing else) is distinct from one empty group.
  const PipelineArtifacts empty;
  ASSERT_TRUE(SaveArtifacts(empty, dir.string()).ok());
  loaded = LoadArtifacts(dir.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectArtifactsBitwiseEqual(loaded.value(), empty);
  EXPECT_TRUE(loaded.value().candidate_groups.empty());
  fs::remove_all(dir);
}

// ---- serve snapshots --------------------------------------------------------

/// A fixed serving state small enough to pin byte for byte.
struct SnapshotInput {
  Graph graph;
  PipelineArtifacts artifacts = SmallArtifacts();
  ServeStateSnapshot state;
};

SnapshotInput FixedSnapshotInput() {
  SnapshotInput in;
  GraphBuilder builder(5);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(2, 3);
  builder.AddEdge(3, 4);
  builder.AddEdge(0, 4);
  Matrix attrs(5, 2);
  for (size_t i = 0; i < 5; ++i) {
    attrs(i, 0) = 0.5 * static_cast<double>(i);
    attrs(i, 1) = -1.0 / static_cast<double>(i + 1);
  }
  in.graph = builder.Build(std::move(attrs));
  in.state.all_dirty = false;
  in.state.dirty_anchor_indices = {0, 2};
  in.state.refresh.primed = true;
  in.state.refresh.per_anchor = {{{0, 1, 2}}, {{3, 4}, {}}, {}};
  return in;
}

TEST(SnapshotFormatTest, SavedBytesArePinned) {
  const fs::path dir = TempDir("snapshot_golden");
  fs::create_directories(dir);
  const SnapshotInput in = FixedSnapshotInput();
  ASSERT_TRUE(SaveServeSnapshot(dir.string(), in.graph, in.artifacts,
                                in.state, /*wal_seq=*/9)
                  .ok());
  const std::vector<std::pair<std::string, std::string>> golden = {
      {"artifacts/anchors.txt", "b64cc60121dd45c5"},
      {"artifacts/embeddings.txt", "d39006e0abaaf1ab"},
      {"artifacts/groups.txt", "ecf8c78097f7b8fe"},
      {"artifacts/manifest.txt", "26631d75b3a48ffb"},
      {"artifacts/node_errors.txt", "7c94efed8e206a6a"},
      {"artifacts/scored_groups.txt", "fa1fb8c8f6062053"},
      {"artifacts/scores.txt", "a52a99ca18568128"},
      {"artifacts/tpgcl_loss.txt", "974d779d061a8451"},
      {"graph.txt", "a46ddf23fd99052f"},
      {"serve_state.txt", "8cee561a8b7795e9"},
      {"snapshot.txt", "558ad87be296e1ff"},
  };
  EXPECT_EQ(FileChecksums(dir / "snapshot"), golden);
  fs::remove_all(dir);
}

TEST(SnapshotCorruptionTest, EveryFileEveryCorruptionYieldsTypedError) {
  const fs::path dir = TempDir("snapshot_corruption");
  fs::create_directories(dir);
  const SnapshotInput in = FixedSnapshotInput();
  ASSERT_TRUE(SaveServeSnapshot(dir.string(), in.graph, in.artifacts,
                                in.state, /*wal_seq=*/9)
                  .ok());
  const fs::path snap = dir / "snapshot";
  const auto files = FileChecksums(snap);
  ASSERT_EQ(files.size(), 11u);

  for (const auto& [name, sum] : files) {
    const fs::path target = snap / name;
    const std::string pristine = ReadAll(target);
    ASSERT_GT(pristine.size(), 4u) << name;
    const bool is_manifest = target.filename() == "snapshot.txt" ||
                             target.filename() == "manifest.txt";

    for (const char* mode : {"truncate", "flip", "remove"}) {
      if (std::string(mode) == "truncate") {
        WriteAll(target, pristine.substr(0, pristine.size() - 3));
      } else if (std::string(mode) == "flip") {
        std::string flipped = pristine;
        flipped[flipped.size() / 2] ^= 0x01;
        WriteAll(target, flipped);
      } else {
        fs::remove(target);
      }

      const auto loaded = LoadServeSnapshot(dir.string());
      ASSERT_FALSE(loaded.ok()) << name << " " << mode;
      if (!is_manifest) {
        EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
            << name << " " << mode << ": " << loaded.status().ToString();
      }

      WriteAll(target, pristine);  // Restore for the next mode.
    }
  }
  EXPECT_TRUE(LoadServeSnapshot(dir.string()).ok());
  fs::remove_all(dir);
}

// ---- full pipeline round trip under an armed-but-quiet injector -------------

TEST_F(FaultFixture, PipelineWithQuietInjectorMatchesBaseline) {
  const Dataset d = GenExampleGraph({});
  const auto baseline = TpGrGad(QuickOptions(7)).TryRun(d.graph);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();

  // All points at rate 0 except one that this pipeline never reaches:
  // enabled() is true, so every Check runs, but nothing may fire.
  ASSERT_TRUE(
      FaultInjector::Global().Configure("seed=2,dataset/load=1").ok());
  const auto guarded = TpGrGad(QuickOptions(7)).TryRun(d.graph);
  FaultInjector::Global().Disable();
  ASSERT_TRUE(guarded.ok()) << guarded.status().ToString();
  ExpectArtifactsEqual(guarded.value(), baseline.value());
}

}  // namespace
}  // namespace grgad
