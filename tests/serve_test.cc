// The serving daemon's contracts (ISSUE acceptance gates):
//   1. bitwise determinism — a batch of mixed requests produces responses
//      byte-identical to running the same requests one-by-one through the
//      stage entry points, at GRGAD_THREADS 1 and 4 and under two admission
//      orders,
//   2. failure isolation — deadline expiry and injected faults become
//      per-request error responses; the daemon keeps serving,
//   3. steady-state zero-alloc — serve.prewarm_workspaces pre-grows the
//      traversal pools so the first request allocates no workspace memory,
//   4. graceful drain — a shutdown request stops admissions but every
//      already-admitted request still answers, in order,
//   5. the score cache is value-neutral — every rescore reply equals an
//      uncached RescoreArtifacts over the resident artifacts at that point.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/artifacts.h"
#include "src/core/method_registry.h"
#include "src/core/stages.h"
#include "src/data/example_graph.h"
#include "src/graph/traversal_workspace.h"
#include "src/serve/batcher.h"
#include "src/serve/request.h"
#include "src/serve/server.h"
#include "src/tensor/matrix.h"
#include "src/util/fault.h"
#include "src/util/status.h"
#include "src/util/transport.h"
#include "tests/kernel_test_util.h"

namespace grgad {
namespace {

TpGrGadOptions QuickOptions(uint64_t seed = 42) {
  TpGrGadOptions options;
  options.seed = seed;
  options.mh_gae.base.epochs = 10;
  options.mh_gae.base.hidden_dim = 16;
  options.mh_gae.base.embed_dim = 8;
  options.mh_gae.anchor_fraction = 0.15;
  options.tpgcl.epochs = 8;
  options.tpgcl.hidden_dim = 16;
  options.tpgcl.embed_dim = 8;
  options.ReseedStages();
  return options;
}

const Dataset& TestDataset() {
  static const Dataset* dataset = new Dataset(GenExampleGraph());
  return *dataset;
}

/// Artifacts trained once with QuickOptions — the daemon's resident state
/// and the rescore/what-if reference input.
const PipelineArtifacts& TrainedArtifacts() {
  static const PipelineArtifacts* artifacts = [] {
    auto result = RunPipeline(TestDataset().graph, QuickOptions());
    if (!result.ok()) {
      ADD_FAILURE() << "seed training failed: " << result.status().ToString();
      return new PipelineArtifacts();
    }
    return new PipelineArtifacts(std::move(result).value());
  }();
  return *artifacts;
}

std::unique_ptr<ServeDaemon> MakeDaemon(TpGrGadOptions base,
                                        size_t max_queue = 64) {
  ServeOptions options;
  options.pipeline = std::move(base);
  options.max_queue = max_queue;
  return std::make_unique<ServeDaemon>(TestDataset().graph, TrainedArtifacts(),
                                       std::move(options));
}

struct SessionResult {
  Status transport = Status::Ok();
  std::vector<std::string> responses;
};

/// One full daemon session over a pipe pair: writes every line, closes the
/// request stream, collects every response until the daemon hangs up.
SessionResult RunSession(ServeDaemon* daemon,
                         const std::vector<std::string>& lines) {
  int c2s[2] = {-1, -1};
  int s2c[2] = {-1, -1};
  EXPECT_EQ(::pipe(c2s), 0);
  EXPECT_EQ(::pipe(s2c), 0);

  SessionResult result;
  CancelToken stop;
  std::thread server([daemon, &result, &stop, in = c2s[0], out = s2c[1]] {
    // The channel owns its fds; its destruction closes the response stream
    // and unblocks the client reader below.
    LineChannel channel(in, out, /*own_fds=*/true);
    result.transport = daemon->Serve(&channel, stop);
  });

  {
    LineChannel writer(c2s[1], c2s[1], /*own_fds=*/true);
    for (const std::string& line : lines) {
      EXPECT_TRUE(writer.WriteLine(line).ok());
    }
  }  // Closes the request stream: the daemon sees EOF once it catches up.

  LineChannel reader(s2c[0], s2c[0], /*own_fds=*/true);
  std::string line;
  bool eof = false;
  for (;;) {
    const Status status = reader.ReadLine(&line, &eof);
    EXPECT_TRUE(status.ok()) << status.ToString();
    if (!status.ok() || eof) break;
    result.responses.push_back(line);
  }
  server.join();
  return result;
}

int64_t ResponseId(const std::string& response) {
  auto parsed = ParseJsonText(response);
  if (!parsed.ok()) return -1;
  const JsonValue* id = parsed.value().Find("id");
  return id != nullptr && id->kind == JsonValue::Kind::kNumber
             ? static_cast<int64_t>(id->number)
             : -1;
}

bool ResponseOk(const std::string& response) {
  auto parsed = ParseJsonText(response);
  if (!parsed.ok()) return false;
  const JsonValue* status = parsed.value().Find("status");
  return status != nullptr && status->string == "ok";
}

// ---- acceptance gate: batched == sequential, bitwise ------------------------

TEST(ServeTest, BatchedMatchesSequentialBitwise) {
  const Graph& graph = TestDataset().graph;
  const PipelineArtifacts& artifacts = TrainedArtifacts();
  const TpGrGadOptions base = QuickOptions();

  // Sequential references: the same renderers over direct stage-function
  // results, with no daemon, queue, or arena involved.
  std::map<int64_t, std::string> expected;
  {
    TpGrGadOptions options = base;
    ASSERT_TRUE(ApplyTpGrGadOverrides(&options, {"tpgcl.epochs=6"}).ok());
    auto result = RunPipeline(graph, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expected[1] = RenderAnchorScoreResponse(1, result.value(), 4);
  }
  {
    auto result =
        RescoreArtifacts(artifacts, DetectorKind::kEnsemble, artifacts.seed);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expected[2] = RenderScoredGroupsResponse(
        2, ServeOp::kRescore, result.value().scored_groups, 3);
  }
  {
    auto result = RescoreArtifacts(artifacts, DetectorKind::kKnn, 7);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expected[3] = RenderScoredGroupsResponse(
        3, ServeOp::kRescore, result.value().scored_groups, 3);
  }
  {
    std::vector<std::vector<int>> groups;
    std::vector<size_t> rows;
    for (size_t i = 0; i < artifacts.candidate_groups.size(); ++i) {
      if (artifacts.candidate_groups[i].size() < 3) continue;
      rows.push_back(i);
      groups.push_back(artifacts.candidate_groups[i]);
    }
    ASSERT_FALSE(groups.empty());
    Matrix subset(groups.size(), artifacts.group_embeddings.cols());
    for (size_t r = 0; r < rows.size(); ++r) {
      for (size_t c = 0; c < subset.cols(); ++c) {
        subset(r, c) = artifacts.group_embeddings(rows[r], c);
      }
    }
    TpGrGadOptions options;
    options.detector = base.detector;
    options.seed = artifacts.seed;
    auto result = RunScoringStage(subset, groups, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    expected[4] = RenderScoredGroupsResponse(
        4, ServeOp::kWhatIf, result.value().scored_groups, 2);
  }

  const std::vector<std::string> lines = {
      R"({"id": 1, "op": "anchor-score", "set": ["tpgcl.epochs=6"], "top": 4})",
      R"({"id": 2, "op": "rescore", "detector": "ensemble", "top": 3})",
      R"({"id": 3, "op": "rescore", "detector": "knn", "seed": 7, "top": 3})",
      R"({"id": 4, "op": "what-if", "min_size": 3, "top": 2})",
  };

  for (const int degree : {1, 4}) {
    testing::ScopedDegree scoped(degree);
    for (const bool reversed : {false, true}) {
      std::vector<std::string> order = lines;
      if (reversed) std::reverse(order.begin(), order.end());
      auto daemon = MakeDaemon(base);
      const SessionResult session = RunSession(daemon.get(), order);
      EXPECT_TRUE(session.transport.ok()) << session.transport.ToString();
      ASSERT_EQ(session.responses.size(), lines.size());
      for (const std::string& response : session.responses) {
        const int64_t id = ResponseId(response);
        ASSERT_TRUE(expected.count(id)) << response;
        EXPECT_EQ(response, expected[id])
            << "degree " << degree << ", reversed " << reversed;
      }
    }
  }
}

// ---- failure isolation ------------------------------------------------------

TEST(ServeTest, DeadlineExpiryIsAPerRequestError) {
  auto daemon = MakeDaemon(QuickOptions());
  const SessionResult session = RunSession(
      daemon.get(),
      {R"({"id": 1, "op": "anchor-score", "timeout": 0.0001})",
       R"({"id": 2, "op": "rescore", "detector": "ensemble", "top": 2})"});
  EXPECT_TRUE(session.transport.ok());
  ASSERT_EQ(session.responses.size(), 2u);
  EXPECT_NE(session.responses[0].find("\"status\": \"DeadlineExceeded\""),
            std::string::npos)
      << session.responses[0];
  // The daemon outlives the expiry and still answers the next request.
  EXPECT_TRUE(ResponseOk(session.responses[1])) << session.responses[1];
}

TEST(ServeTest, InjectedFaultIsIsolatedToTheRequest) {
  auto daemon = MakeDaemon(QuickOptions());
  ASSERT_TRUE(FaultInjector::Global().Configure("serve/execute=1.0").ok());
  const SessionResult faulted = RunSession(
      daemon.get(),
      {R"({"id": 1, "op": "rescore", "detector": "ensemble"})",
       R"({"id": 2, "op": "what-if", "min_size": 3})"});
  FaultInjector::Global().Disable();
  EXPECT_TRUE(faulted.transport.ok());
  ASSERT_EQ(faulted.responses.size(), 2u);
  for (const std::string& response : faulted.responses) {
    EXPECT_NE(response.find("\"status\": \"Internal\""), std::string::npos)
        << response;
  }
  // With the injector off, the same daemon serves cleanly.
  const SessionResult clean = RunSession(
      daemon.get(), {R"({"id": 3, "op": "rescore", "detector": "ensemble"})"});
  ASSERT_EQ(clean.responses.size(), 1u);
  EXPECT_TRUE(ResponseOk(clean.responses[0])) << clean.responses[0];
}

TEST(ServeTest, SeededFaultSweepNeverKillsTheDaemon) {
  const std::vector<std::string> lines = {
      R"({"id": 1, "op": "rescore", "detector": "ensemble"})",
      R"({"id": 2, "op": "rescore", "detector": "knn"})",
      R"({"id": 3, "op": "what-if", "min_size": 3})",
      R"({"id": 4, "op": "stats"})",
  };
  for (uint64_t seed = 0; seed < 10; ++seed) {
    ASSERT_TRUE(FaultInjector::Global()
                    .Configure("seed=" + std::to_string(seed) + ",rate=0.05")
                    .ok());
    auto daemon = MakeDaemon(QuickOptions());
    const SessionResult session = RunSession(daemon.get(), lines);
    FaultInjector::Global().Disable();
    EXPECT_TRUE(session.transport.ok()) << "seed " << seed;
    // Every admitted-or-rejected request answers — ok or a typed error.
    EXPECT_EQ(session.responses.size(), lines.size()) << "seed " << seed;
  }
}

// ---- steady-state zero-alloc (serve.prewarm_workspaces) ---------------------

TEST(ServeTest, PrewarmedWorkspacesServeFirstRequestAllocFree) {
  testing::ScopedDegree scoped(4);
  TpGrGadOptions base = QuickOptions();
  ASSERT_TRUE(
      ApplyTpGrGadOverrides(&base, {"serve.prewarm_workspaces=4"}).ok());
  ASSERT_EQ(base.serve_prewarm_workspaces, 4);
  auto daemon = MakeDaemon(base);
  daemon->Prewarm();

  ServeRequest request;
  request.id = 1;
  request.op = ServeOp::kAnchorScore;
  const uint64_t allocs_before = TraversalWorkspace::TotalHeapAllocs();
  Status status;
  (void)daemon->Execute(request, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(TraversalWorkspace::TotalHeapAllocs(), allocs_before)
      << "candidate stage grew a traversal workspace after Prewarm()";

  // A second identical request must recycle the arena-held training
  // buffers (reuse counts, not byte-zero: the arena trades allocations,
  // never changes values).
  request.id = 2;
  (void)daemon->Execute(request, &status);
  ASSERT_TRUE(status.ok()) << status.ToString();
  auto metrics = ParseJsonText(daemon->MetricsJson());
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  const JsonValue* arena = metrics.value().Find("arena");
  ASSERT_NE(arena, nullptr);
  const JsonValue* reused = arena->Find("reused");
  ASSERT_NE(reused, nullptr);
  EXPECT_GT(reused->number, 0.0);
}

// ---- per-request arena budget -----------------------------------------------

/// Executes one request line on `daemon`; the response bytes.
std::string ExecuteLine(ServeDaemon* daemon, const std::string& line) {
  auto request = ParseServeRequest(line);
  EXPECT_TRUE(request.ok()) << request.status().ToString();
  if (!request.ok()) return "";
  Status status;
  return daemon->Execute(request.value(), &status);
}

TEST(ServeTest, ArenaByteBudgetEndsWithItsRequest) {
  // Both training stages share the daemon's arena. A budget that one
  // request sets must not stay armed on it for the requests after it.
  const std::string unbudgeted =
      R"({"id": 2, "op": "anchor-score", "set": ["tpgcl.hidden_dim=32"]})";

  // A budget the first request fits exactly: the arena's heap bytes after
  // the same request without one.
  auto probe = MakeDaemon(QuickOptions());
  ASSERT_TRUE(ResponseOk(
      ExecuteLine(probe.get(), R"({"id": 1, "op": "anchor-score"})")));
  auto stats =
      ParseJsonText(ExecuteLine(probe.get(), R"({"id": 9, "op": "stats"})"));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const JsonValue* metrics = stats.value().Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const JsonValue* arena = metrics->Find("arena");
  ASSERT_NE(arena, nullptr);
  const JsonValue* heap_bytes = arena->Find("heap_bytes");
  ASSERT_NE(heap_bytes, nullptr);
  ASSERT_GT(heap_bytes->number, 0.0);
  const std::string budgeted =
      R"({"id": 1, "op": "anchor-score", "set": ["mh_gae.arena_byte_budget=)" +
      std::to_string(static_cast<uint64_t>(heap_bytes->number)) + R"("]})";

  auto daemon = MakeDaemon(QuickOptions());
  const std::string first = ExecuteLine(daemon.get(), budgeted);
  EXPECT_TRUE(ResponseOk(first)) << first;
  const std::string second = ExecuteLine(daemon.get(), unbudgeted);
  EXPECT_TRUE(ResponseOk(second)) << second;

  auto fresh = MakeDaemon(QuickOptions());
  EXPECT_EQ(second, ExecuteLine(fresh.get(), unbudgeted));
}

// ---- graceful drain ---------------------------------------------------------

TEST(ServeTest, ShutdownStopsAdmissionsButDrainsTheBacklog) {
  auto daemon = MakeDaemon(QuickOptions());
  const SessionResult session = RunSession(
      daemon.get(),
      {R"({"id": 1, "op": "rescore", "detector": "ensemble", "top": 2})",
       R"({"id": 2, "op": "shutdown"})",
       R"({"id": 3, "op": "stats"})"});
  EXPECT_TRUE(session.transport.ok());
  // The post-shutdown line is never read; everything admitted before it
  // still answers, in admission order.
  ASSERT_EQ(session.responses.size(), 2u);
  EXPECT_EQ(ResponseId(session.responses[0]), 1);
  EXPECT_TRUE(ResponseOk(session.responses[0]));
  EXPECT_NE(session.responses[1].find("\"draining\": true"),
            std::string::npos);
  EXPECT_TRUE(daemon->shutdown_requested());
}

// ---- queue + parsing + retry classification units ---------------------------

TEST(ServeTest, RequestQueueBoundsAdmissionAndDrainsInOrder) {
  RequestQueue queue(2);
  ServeRequest request;
  request.op = ServeOp::kStats;
  request.id = 1;
  EXPECT_TRUE(queue.Admit(request));
  request.id = 2;
  EXPECT_TRUE(queue.Admit(request));
  request.id = 3;
  EXPECT_FALSE(queue.Admit(request));  // Full: capacity 2.
  EXPECT_EQ(queue.depth(), 2u);

  std::vector<PendingRequest> batch;
  ASSERT_TRUE(queue.DrainBatch(&batch));
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].request.id, 1);
  EXPECT_EQ(batch[1].request.id, 2);
  EXPECT_LT(batch[0].admit_seq, batch[1].admit_seq);

  queue.Close();
  EXPECT_FALSE(queue.Admit(request));  // Closed.
  batch.clear();
  EXPECT_FALSE(queue.DrainBatch(&batch));  // Closed and drained.
}

TEST(ServeTest, ParseServeRequestValidates) {
  auto ok = ParseServeRequest(
      R"({"id": 7, "op": "what-if", "contains": 17, "min_size": 3})");
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok.value().id, 7);
  EXPECT_EQ(ok.value().op, ServeOp::kWhatIf);
  EXPECT_EQ(ok.value().contains_node, 17);
  EXPECT_EQ(ok.value().min_size, 3);

  EXPECT_FALSE(ParseServeRequest("not json").ok());
  EXPECT_FALSE(ParseServeRequest(R"({"op": "stats"})").ok());  // No id.
  EXPECT_FALSE(ParseServeRequest(R"({"id": 1, "op": "bogus"})").ok());
  EXPECT_FALSE(  // Unknown key.
      ParseServeRequest(R"({"id": 1, "op": "stats", "bogus": 1})").ok());
  EXPECT_FALSE(  // rescore requires a detector.
      ParseServeRequest(R"({"id": 1, "op": "rescore"})").ok());
}

TEST(ServeTest, TopGroupsJsonRanksAndKeepsFullPrecision) {
  // Serve replies and `grgad run --json` both render through this: scores
  // must survive the text bit for bit, as they do in the artifacts.
  EXPECT_EQ(TopGroupsJson({{{4, 2}, 137.03549252268289}, {{1}, 0.5},
                           {{3}, 200.0}},
                          2),
            R"([{"score": 200, "nodes": [3]}, )"
            R"({"score": 137.03549252268289, "nodes": [4, 2]}])");
}

TEST(ServeTest, TopGroupsJsonOrdersTiesLikeAStableSort) {
  // Only the rendered prefix is ordered; ties (±0 among them) must keep
  // input order, exactly as a stable sort of every group would.
  const double kScores[] = {0.5, 1.0, -0.0, 0.0, 1.0, 0.5};
  std::vector<ScoredGroup> groups;
  for (int i = 0; i < 40; ++i) {
    groups.push_back({{i}, kScores[(i * 7) % std::size(kScores)]});
  }
  std::vector<ScoredGroup> sorted = groups;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const ScoredGroup& a, const ScoredGroup& b) {
                     return a.score > b.score;
                   });
  for (int top : {0, 1, 7, 40, 45}) {
    std::vector<ScoredGroup> prefix(
        sorted.begin(),
        sorted.begin() + std::min<size_t>(top, sorted.size()));
    EXPECT_EQ(TopGroupsJson(groups, top), TopGroupsJson(prefix, top)) << top;
  }
}

// Fixed inputs for the reply pins and round trips: every ranking edge
// value (±0 as -0, the smallest denormal, DBL_MAX) and an empty group.
std::vector<ScoredGroup> EdgeScoredGroups() {
  return {{{4, 2}, 137.03549252268289},
          {{1}, -0.0},
          {{3, 9}, std::numeric_limits<double>::denorm_min()},
          {{}, 0.25},
          {{5}, std::numeric_limits<double>::max()}};
}

PipelineArtifacts EdgeArtifacts() {
  PipelineArtifacts artifacts;
  artifacts.anchors = {1, 2, 3};
  for (const ScoredGroup& sg : EdgeScoredGroups()) {
    artifacts.candidate_groups.push_back(sg.nodes);
  }
  artifacts.scored_groups = EdgeScoredGroups();
  return artifacts;
}

/// Every renderer's reply on the fixed inputs; the same list feeds the byte
/// pins and the round-trip test.
std::vector<std::string> RenderedReplies() {
  const std::vector<ScoredGroup> scored = EdgeScoredGroups();
  return {
      RenderAnchorScoreResponse(7, EdgeArtifacts(), 2),
      RenderScoredGroupsResponse(8, ServeOp::kRescore, scored, 5),
      RenderScoredGroupsResponse(9, ServeOp::kWhatIf, scored, 0),
      RenderMutationResponse(10, ServeOp::kAddEdge, true, 12, 216),
      RenderMutationResponse(11, ServeOp::kRemoveEdge, false, 0, 215),
      RenderRefreshResponse(12, 3, 17, scored, 1),
      RenderCompactResponse(13, 215, 2),
      RenderSyncResponse(14, UINT64_MAX),
      RenderSnapshotResponse(15, 42),
      RenderErrorResponse(16, ServeOp::kRescore,
                          Status::InvalidArgument(
                              "unknown detector 'a\"b\\c\x01\n\td'")),
      RenderErrorResponse(-1, "invalid",
                          Status::FailedPrecondition("grüße ✓")),
  };
}

TEST(ServeTest, RenderedRepliesArePinnedBytes) {
  // The wire bytes of every reply kind: key order, ", " / ": " separators,
  // 17-digit scores, string escapes. Captured before the JSON writer
  // existed; a renderer port must leave every byte as it was.
  const std::vector<std::string> want = {
      R"({"id": 7, "op": "anchor-score", "status": "ok", "num_anchors": 3, )"
      R"("num_groups": 5, "top_groups": [{"score": 1.7976931348623157e+308, )"
      R"("nodes": [5]}, {"score": 137.03549252268289, "nodes": [4, 2]}]})",
      R"({"id": 8, "op": "rescore", "status": "ok", "num_groups": 5, )"
      R"("top_groups": [{"score": 1.7976931348623157e+308, "nodes": [5]}, )"
      R"({"score": 137.03549252268289, "nodes": [4, 2]}, )"
      R"({"score": 0.25, "nodes": []}, )"
      R"({"score": 4.9406564584124654e-324, "nodes": [3, 9]}, )"
      R"({"score": -0, "nodes": [1]}]})",
      R"({"id": 9, "op": "what-if", "status": "ok", "num_groups": 5, )"
      R"("top_groups": []})",
      R"({"id": 10, "op": "add-edge", "status": "ok", "applied": true, )"
      R"("invalidated_anchors": 12, "num_edges": 216})",
      R"({"id": 11, "op": "remove-edge", "status": "ok", "applied": false, )"
      R"("invalidated_anchors": 0, "num_edges": 215})",
      R"({"id": 12, "op": "refresh", "status": "ok", "refreshed_anchors": 3, )"
      R"("reused_anchors": 17, "num_groups": 5, "top_groups": )"
      R"([{"score": 1.7976931348623157e+308, "nodes": [5]}]})",
      R"({"id": 13, "op": "compact", "status": "ok", "num_edges": 215, )"
      R"("compactions": 2, "pending_log": 0})",
      R"({"id": 14, "op": "sync", "status": "ok", )"
      R"("wal_seq": 18446744073709551615})",
      R"({"id": 15, "op": "snapshot", "status": "ok", "wal_seq": 42})",
      R"({"id": 16, "op": "rescore", "status": "InvalidArgument", )"
      R"("error": "unknown detector 'a\"b\\c\u0001\n\td'"})",
      "{\"id\": -1, \"op\": \"invalid\", \"status\": \"FailedPrecondition\", "
      "\"error\": \"grüße ✓\"}",
  };
  const std::vector<std::string> got = RenderedReplies();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]) << i;
}

/// Bitwise double equality: tells -0 from +0.
bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

int64_t IntMember(const JsonValue& object, const std::string& key) {
  const JsonValue* member = object.Find(key);
  int64_t value = -999;
  EXPECT_TRUE(member != nullptr && JsonInt64(*member, INT64_MIN, INT64_MAX,
                                             &value))
      << key;
  return value;
}

std::string StrMember(const JsonValue& object, const std::string& key) {
  const JsonValue* member = object.Find(key);
  EXPECT_TRUE(member != nullptr && member->kind == JsonValue::Kind::kString)
      << key;
  return member != nullptr ? member->string : "";
}

/// `top` parsed back must be the first `count` groups of `want` by
/// descending score, every score bit for bit.
void ExpectTopGroups(const JsonValue& reply, std::vector<ScoredGroup> want,
                     size_t count) {
  std::stable_sort(want.begin(), want.end(),
                   [](const ScoredGroup& a, const ScoredGroup& b) {
                     return a.score > b.score;
                   });
  want.resize(std::min(count, want.size()));
  const JsonValue* top = reply.Find("top_groups");
  ASSERT_NE(top, nullptr);
  ASSERT_EQ(top->array.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    const JsonValue* score = top->array[i].Find("score");
    ASSERT_NE(score, nullptr);
    EXPECT_TRUE(SameBits(score->number, want[i].score)) << i;
    const JsonValue* nodes = top->array[i].Find("nodes");
    ASSERT_NE(nodes, nullptr);
    ASSERT_EQ(nodes->array.size(), want[i].nodes.size());
    for (size_t k = 0; k < want[i].nodes.size(); ++k) {
      int64_t node = -1;
      EXPECT_TRUE(JsonInt64(nodes->array[k], 0, INT32_MAX, &node));
      EXPECT_EQ(node, want[i].nodes[k]);
    }
  }
}

TEST(ServeTest, RepliesMetricsAndWriterDocumentsRoundTrip) {
  std::vector<JsonValue> replies;
  for (const std::string& text : RenderedReplies()) {
    auto parsed = ParseJsonText(text);
    ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
    replies.push_back(std::move(parsed).value());
  }
  ASSERT_EQ(replies.size(), 11u);
  const int64_t ids[] = {7, 8, 9, 10, 11, 12, 13, 14, 15, 16, -1};
  const char* ops[] = {"anchor-score", "rescore", "what-if", "add-edge",
                       "remove-edge", "refresh", "compact", "sync",
                       "snapshot", "rescore", "invalid"};
  for (size_t i = 0; i < replies.size(); ++i) {
    EXPECT_EQ(IntMember(replies[i], "id"), ids[i]) << i;
    EXPECT_EQ(StrMember(replies[i], "op"), ops[i]) << i;
  }
  const std::vector<ScoredGroup> scored = EdgeScoredGroups();
  EXPECT_EQ(IntMember(replies[0], "num_anchors"), 3);
  ExpectTopGroups(replies[0], scored, 2);
  ExpectTopGroups(replies[1], scored, 5);
  ExpectTopGroups(replies[2], scored, 0);
  EXPECT_TRUE(replies[3].Find("applied")->boolean);
  EXPECT_EQ(IntMember(replies[3], "invalidated_anchors"), 12);
  EXPECT_FALSE(replies[4].Find("applied")->boolean);
  EXPECT_EQ(IntMember(replies[4], "num_edges"), 215);
  EXPECT_EQ(IntMember(replies[5], "reused_anchors"), 17);
  ExpectTopGroups(replies[5], scored, 1);
  EXPECT_EQ(IntMember(replies[6], "compactions"), 2);
  // UINT64_MAX is past JsonInt64's range; its literal survives as written.
  EXPECT_EQ(replies[7].Find("wal_seq")->string, "18446744073709551615");
  EXPECT_EQ(IntMember(replies[8], "wal_seq"), 42);
  EXPECT_EQ(StrMember(replies[9], "error"),
            "unknown detector 'a\"b\\c\x01\n\td'");
  EXPECT_EQ(StrMember(replies[10], "error"), "grüße ✓");

  // The daemon's metrics document after real traffic.
  auto daemon = MakeDaemon(QuickOptions());
  const SessionResult session = RunSession(
      daemon.get(), {R"({"id": 1, "op": "what-if", "min_size": 2})",
                     R"({"id": 2, "op": "bogus"})"});
  ASSERT_EQ(session.responses.size(), 2u);
  auto metrics = ParseJsonText(daemon->MetricsJson());
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  const JsonValue& m = metrics.value();
  EXPECT_EQ(StrMember(m, "schema"), "grgad-serve-metrics-v3");
  EXPECT_EQ(IntMember(*m.Find("queue"), "rejected"), 1);
  const JsonValue* what_if = m.Find("requests")->Find("by_op")->Find("what-if");
  ASSERT_NE(what_if, nullptr);
  EXPECT_EQ(IntMember(*what_if, "count"), 1);
  EXPECT_GT(what_if->Find("total_ms")->number, 0.0);
  const JsonValue& buckets = *m.Find("latency_ms")->Find("buckets");
  ASSERT_EQ(buckets.array.size(), 14u);
  EXPECT_EQ(buckets.array.front().Find("le")->number, 1.0);
  EXPECT_EQ(buckets.array.back().Find("le")->kind, JsonValue::Kind::kNull);
  EXPECT_EQ(StrMember(*m.Find("durability"), "last_error"), "");
  EXPECT_EQ(m.Find("arena")->kind, JsonValue::Kind::kObject);

  // A writer document over the number rule's edges and every token kind.
  const double kEdges[] = {0.0,
                           -0.0,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::max(),
                           -std::numeric_limits<double>::max(),
                           137.03549252268289,
                           0.1};
  JsonWriter writer;
  writer.Object().Key("edges").Array();
  for (double v : kEdges) writer.Num(v);
  writer.End()
      .Key("non_finite").Array()
      .Num(std::numeric_limits<double>::quiet_NaN())
      .Num(std::numeric_limits<double>::infinity())
      .Num(-std::numeric_limits<double>::infinity())
      .End()
      .Key("empty_object").Object().End()
      .Key("empty_array").Array().End()
      .Key("utf8").Str("grüße ✓ 中文")
      .Key("key \"quoted\"\x02").Str("q\"b\\c\x01\x1f\n\t")
      .Key("ints").Array().Int(INT64_MIN).Int(INT64_MAX).Int(0).End()
      .Key("flags").Array().Bool(true).Bool(false).End()
      .Key("nested").Array().Array().Object().End().End().End()
      .End();
  const std::string document = writer.Take();
  auto doc = ParseJsonText(document);
  ASSERT_TRUE(doc.ok()) << document << ": " << doc.status().ToString();
  const JsonValue& d = doc.value();
  const JsonValue& edges = *d.Find("edges");
  ASSERT_EQ(edges.array.size(), std::size(kEdges));
  for (size_t i = 0; i < std::size(kEdges); ++i) {
    EXPECT_EQ(edges.array[i].kind, JsonValue::Kind::kNumber) << i;
    EXPECT_TRUE(SameBits(edges.array[i].number, kEdges[i]))
        << i << ": " << edges.array[i].string;
  }
  const JsonValue& non_finite = *d.Find("non_finite");
  ASSERT_EQ(non_finite.array.size(), 3u);
  for (const JsonValue& v : non_finite.array) {
    EXPECT_EQ(v.kind, JsonValue::Kind::kNull);
  }
  EXPECT_EQ(d.Find("empty_object")->kind, JsonValue::Kind::kObject);
  EXPECT_TRUE(d.Find("empty_object")->object.empty());
  EXPECT_EQ(d.Find("empty_array")->kind, JsonValue::Kind::kArray);
  EXPECT_TRUE(d.Find("empty_array")->array.empty());
  EXPECT_EQ(StrMember(d, "utf8"), "grüße ✓ 中文");
  EXPECT_EQ(StrMember(d, "key \"quoted\"\x02"), "q\"b\\c\x01\x1f\n\t");
  const JsonValue& ints = *d.Find("ints");
  ASSERT_EQ(ints.array.size(), 3u);
  int64_t value = 0;
  EXPECT_TRUE(JsonInt64(ints.array[0], INT64_MIN, INT64_MAX, &value));
  EXPECT_EQ(value, INT64_MIN);
  EXPECT_TRUE(JsonInt64(ints.array[1], INT64_MIN, INT64_MAX, &value));
  EXPECT_EQ(value, INT64_MAX);
  EXPECT_TRUE(d.Find("flags")->array[0].boolean);
  EXPECT_FALSE(d.Find("flags")->array[1].boolean);
  EXPECT_EQ(d.Find("nested")->array[0].array[0].kind,
            JsonValue::Kind::kObject);
  // Same separators as the renderers.
  EXPECT_NE(document.find(R"("empty_object": {}, "empty_array": [], )"),
            std::string::npos)
      << document;
}

TEST(ServeTest, JsonInt64ReadsIntegerLiteralsExactly) {
  auto read = [](const std::string& literal, int64_t lo, int64_t hi,
                 int64_t* out) {
    auto parsed = ParseJsonText(literal);
    return parsed.ok() && JsonInt64(parsed.value(), lo, hi, out);
  };
  int64_t v = 0;
  EXPECT_TRUE(read("9223372036854775807", 0, INT64_MAX, &v));
  EXPECT_EQ(v, INT64_MAX);
  EXPECT_TRUE(read("-9223372036854775808", INT64_MIN, 0, &v));
  EXPECT_EQ(v, INT64_MIN);
  EXPECT_TRUE(read("9007199254740993", 0, INT64_MAX, &v));  // 2^53 + 1.
  EXPECT_EQ(v, 9007199254740993);
  EXPECT_FALSE(read("9223372036854775808", 0, INT64_MAX, &v));  // 2^63.
  EXPECT_FALSE(read("-9223372036854775809", INT64_MIN, 0, &v));
  EXPECT_FALSE(read("1e30", 0, INT64_MAX, &v));
  EXPECT_FALSE(read("17.0", 0, INT64_MAX, &v));
  EXPECT_FALSE(read("17.5", 0, INT64_MAX, &v));
  EXPECT_FALSE(read("-1", 0, INT64_MAX, &v));
  EXPECT_FALSE(read("11", 0, 10, &v));
  EXPECT_FALSE(read("\"7\"", 0, INT64_MAX, &v));
}

TEST(ServeTest, OutOfRangeIntegersAreRejectedNotWrapped) {
  // 2^63 is one past INT64_MAX; a double range check let it through and
  // the cast wrapped it to INT64_MIN.
  EXPECT_FALSE(
      ParseServeRequest(R"({"id": 9223372036854775808, "op": "stats"})").ok());
  auto max_id =
      ParseServeRequest(R"({"id": 9223372036854775807, "op": "stats"})");
  ASSERT_TRUE(max_id.ok()) << max_id.status().ToString();
  EXPECT_EQ(max_id.value().id, INT64_MAX);

  // A node that some resident group holds, and the same id plus 2^32,
  // which an int cast used to wrap back onto it.
  const int node = TrainedArtifacts().candidate_groups.at(0).at(0);
  const std::string wrapped = std::to_string((int64_t{1} << 32) + node);
  auto daemon = MakeDaemon(QuickOptions());
  const SessionResult session = RunSession(
      daemon.get(),
      {R"({"id": 9223372036854775808, "op": "what-if", "top": 1})",
       R"({"id": 1e30, "op": "nope"})",
       R"({"id": 2, "op": "what-if", "contains": 9223372036854775808})",
       "{\"id\": 3, \"op\": \"what-if\", \"contains\": " + wrapped + "}",
       R"({"id": 4, "op": "what-if", "contains": 2000000000})",
       "{\"id\": 5, \"op\": \"what-if\", \"contains\": " +
           std::to_string(node) + "}"});
  ASSERT_TRUE(session.transport.ok()) << session.transport.ToString();
  ASSERT_EQ(session.responses.size(), 6u);
  // Rejected lines are answered at admission, so replies are found by id.
  std::map<std::string, std::vector<std::string>> by_id;
  for (const std::string& response : session.responses) {
    by_id[response.substr(0, response.find(','))].push_back(response);
  }
  const std::string bad_id =
      R"({"id": -1, "op": "invalid", "status": "InvalidArgument", )"
      R"("error": "request field 'id': expected a non-negative integer"})";
  EXPECT_EQ(by_id[R"({"id": -1)"],
            (std::vector<std::string>{bad_id, bad_id}));
  ASSERT_EQ(by_id[R"({"id": 2)"].size(), 1u);
  EXPECT_EQ(by_id[R"({"id": 2)"][0],
            R"({"id": 2, "op": "invalid", "status": "InvalidArgument", )"
            R"("error": "request field 'contains': expected a )"
            R"(non-negative node id"})");
  auto no_match = [](int id) {
    return "{\"id\": " + std::to_string(id) +
           ", \"op\": \"what-if\", \"status\": \"FailedPrecondition\", "
           "\"error\": \"what-if: no resident groups match the filter\"}";
  };
  EXPECT_EQ(by_id[R"({"id": 3)"], std::vector<std::string>{no_match(3)});
  EXPECT_EQ(by_id[R"({"id": 4)"], std::vector<std::string>{no_match(4)});
  ASSERT_EQ(by_id[R"({"id": 5)"].size(), 1u);
  EXPECT_TRUE(ResponseOk(by_id[R"({"id": 5)"][0]));
}

TEST(ServeTest, ParseServeRequestMutationOps) {
  auto add = ParseServeRequest(
      R"({"id": 3, "op": "add-edge", "u": 4, "v": 19})");
  ASSERT_TRUE(add.ok()) << add.status().ToString();
  EXPECT_EQ(add.value().op, ServeOp::kAddEdge);
  EXPECT_EQ(add.value().u, 4);
  EXPECT_EQ(add.value().v, 19);

  auto remove = ParseServeRequest(
      R"({"id": 4, "op": "remove-edge", "u": 19, "v": 4})");
  ASSERT_TRUE(remove.ok()) << remove.status().ToString();
  EXPECT_EQ(remove.value().op, ServeOp::kRemoveEdge);

  EXPECT_TRUE(ParseServeRequest(R"({"id": 5, "op": "refresh"})").ok());
  EXPECT_TRUE(ParseServeRequest(R"({"id": 6, "op": "compact"})").ok());

  // Both endpoints are required for the edge ops.
  EXPECT_FALSE(ParseServeRequest(R"({"id": 7, "op": "add-edge"})").ok());
  EXPECT_FALSE(
      ParseServeRequest(R"({"id": 8, "op": "add-edge", "u": 2})").ok());
  EXPECT_FALSE(
      ParseServeRequest(R"({"id": 9, "op": "remove-edge", "v": 2})").ok());
}

TEST(ServeTest, MutationSessionRefreshesAndReportsMetrics) {
  // QuickOptions uses the default weighted path mode, so mutations take the
  // MarkAll fallback — every refresh is full, still exact.
  auto daemon = MakeDaemon(QuickOptions());
  const int n = TestDataset().graph.num_nodes();
  int u = -1, v = -1;  // Some absent edge.
  for (int a = 0; a < n && u < 0; ++a) {
    for (int b = a + 1; b < n; ++b) {
      if (!TestDataset().graph.HasEdge(a, b)) {
        u = a;
        v = b;
        break;
      }
    }
  }
  ASSERT_GE(u, 0);

  const SessionResult session = RunSession(
      daemon.get(),
      {"{\"id\": 1, \"op\": \"add-edge\", \"u\": " + std::to_string(u) +
           ", \"v\": " + std::to_string(v) + "}",
       // Duplicate add: a structural no-op, answered applied=false.
       "{\"id\": 2, \"op\": \"add-edge\", \"u\": " + std::to_string(u) +
           ", \"v\": " + std::to_string(v) + "}",
       R"({"id": 3, "op": "refresh", "top": 3})",
       "{\"id\": 4, \"op\": \"remove-edge\", \"u\": " + std::to_string(u) +
           ", \"v\": " + std::to_string(v) + "}",
       R"({"id": 5, "op": "compact"})",
       R"({"id": 6, "op": "stats"})"});
  ASSERT_TRUE(session.transport.ok()) << session.transport.ToString();
  ASSERT_EQ(session.responses.size(), 6u);
  for (const std::string& response : session.responses) {
    EXPECT_TRUE(ResponseOk(response)) << response;
  }
  EXPECT_NE(session.responses[0].find("\"applied\": true"), std::string::npos)
      << session.responses[0];
  EXPECT_NE(session.responses[1].find("\"applied\": false"),
            std::string::npos)
      << session.responses[1];
  EXPECT_NE(session.responses[2].find("\"refreshed_anchors\""),
            std::string::npos)
      << session.responses[2];
  EXPECT_NE(session.responses[4].find("\"pending_log\": 0"),
            std::string::npos)
      << session.responses[4];
  // The metrics snapshot carries the v3 mutation + durability counters.
  EXPECT_NE(session.responses[5].find("\"grgad-serve-metrics-v3\""),
            std::string::npos);
  EXPECT_NE(session.responses[5].find("\"durability\""), std::string::npos);
  EXPECT_NE(session.responses[5].find("\"mutations\""), std::string::npos);
  EXPECT_NE(session.responses[5].find("\"refreshes\": 1"), std::string::npos)
      << session.responses[5];

  // The mutations landed in the daemon's live graph.
  EXPECT_EQ(daemon->dynamic_graph().num_edges(),
            TestDataset().graph.num_edges());
  EXPECT_EQ(daemon->dynamic_graph().stats().compactions, 1u);
}

// ---- the (detector, seed) score cache ---------------------------------------

/// Runs one request line through the daemon's synchronous Execute path.
std::string Execute(ServeDaemon* daemon, const std::string& line) {
  auto request = ParseServeRequest(line);
  EXPECT_TRUE(request.ok()) << line;
  return request.ok() ? daemon->Execute(request.value()) : "";
}

/// The reply an uncached rescore renders over the daemon's artifacts now.
std::string FreshRescore(const ServeDaemon& daemon, const std::string& line) {
  auto request = ParseServeRequest(line);
  EXPECT_TRUE(request.ok()) << line;
  DetectorKind kind;
  EXPECT_TRUE(ParseDetectorKind(request.value().detector, &kind)) << line;
  const uint64_t seed = request.value().has_seed
                            ? request.value().seed
                            : daemon.artifacts().seed;
  auto result = RescoreArtifacts(daemon.artifacts(), kind, seed);
  if (!result.ok()) {
    return RenderErrorResponse(request.value().id, ServeOp::kRescore,
                               result.status());
  }
  return RenderScoredGroupsResponse(request.value().id, ServeOp::kRescore,
                                    result.value().scored_groups,
                                    request.value().top);
}

/// {generation, hits, misses} from the daemon's scoring_cache block.
std::vector<int64_t> CacheCounters(const ServeDaemon& daemon) {
  auto metrics = ParseJsonText(daemon.MetricsJson());
  EXPECT_TRUE(metrics.ok());
  if (!metrics.ok()) return {};
  const JsonValue* cache = metrics.value().Find("scoring_cache");
  EXPECT_NE(cache, nullptr);
  if (cache == nullptr) return {};
  return {IntMember(*cache, "generation"), IntMember(*cache, "hits"),
          IntMember(*cache, "misses")};
}

std::pair<int, int> AbsentEdge() {
  const Graph& graph = TestDataset().graph;
  for (int a = 0; a < graph.num_nodes(); ++a) {
    for (int b = a + 1; b < graph.num_nodes(); ++b) {
      if (!graph.HasEdge(a, b)) return {a, b};
    }
  }
  return {-1, -1};
}

TEST(ServeTest, RescoreCacheRepliesEqualUncachedScoring) {
  const auto [u, v] = AbsentEdge();
  ASSERT_GE(u, 0);
  const std::string edge =
      ", \"u\": " + std::to_string(u) + ", \"v\": " + std::to_string(v) + "}";
  // Each rescore is annotated with whether the cache must answer it; the
  // default seed is the artifacts' (42), which is also the base options'
  // seed and ecod their detector, so a refresh seeds (ecod, 42).
  struct Step {
    std::string line;
    bool hit = false;
  };
  const std::vector<Step> script = {
      {R"({"id": 1, "op": "rescore", "detector": "ecod", "top": 4})"},
      {R"({"id": 2, "op": "rescore", "detector": "ecod", "top": 6})", true},
      {R"({"id": 3, "op": "rescore", "detector": "knn", "seed": 7})"},
      {R"({"id": 4, "op": "rescore", "detector": "knn", "seed": 7})", true},
      {R"({"id": 5, "op": "rescore", "detector": "iforest", "seed": 3})"},
      // One entry per kind: seed 4 evicts seed 3.
      {R"({"id": 6, "op": "rescore", "detector": "iforest", "seed": 4})"},
      {R"({"id": 7, "op": "rescore", "detector": "iforest", "seed": 3})"},
      {R"({"id": 8, "op": "rescore", "detector": "ensemble", "top": 3})"},
      {R"({"id": 9, "op": "rescore", "detector": "knn", "seed": 7})", true},
      // A mutation marks anchors but leaves the artifacts as they are.
      {"{\"id\": 10, \"op\": \"add-edge\"" + edge},
      {R"({"id": 11, "op": "rescore", "detector": "ecod"})", true},
      {R"({"id": 12, "op": "what-if", "min_size": 3, "top": 3})"},
      {R"({"id": 13, "op": "refresh", "top": 3})"},
      // The refresh's own scores answer the default rescore.
      {R"({"id": 14, "op": "rescore", "detector": "ecod", "top": 5})", true},
      {R"({"id": 15, "op": "rescore", "detector": "knn", "seed": 7})"},
      {R"({"id": 16, "op": "rescore", "detector": "knn", "seed": 7})", true},
      // An expired deadline is never answered from the cache.
      {R"({"id": 17, "op": "rescore", "detector": "knn", "seed": 7, )"
       R"("timeout": 1e-9})"},
      {"{\"id\": 18, \"op\": \"remove-edge\"" + edge},
      // Fails: the injected fault stops its pooled embedding.
      {R"({"id": 19, "op": "refresh", "top": 3})"},
      {R"({"id": 20, "op": "rescore", "detector": "knn", "seed": 7})"},
      {R"({"id": 21, "op": "rescore", "detector": "ecod"})"},
      {R"({"id": 22, "op": "rescore", "detector": "ecod"})", true},
      {R"({"id": 23, "op": "refresh", "top": 3})"},
      {R"({"id": 24, "op": "rescore", "detector": "ecod", "seed": 42})", true},
      {R"({"id": 25, "op": "rescore", "detector": "mad", "top": 2})"},
  };
  for (const int degree : {1, 4}) {
    testing::ScopedDegree scoped(degree);
    auto daemon = MakeDaemon(QuickOptions());
    int64_t hits = 0, misses = 0;
    for (const Step& step : script) {
      const bool rescore = step.line.find("\"rescore\"") != std::string::npos;
      const bool failing = step.line.find("\"id\": 19,") != std::string::npos;
      const std::string want =
          rescore ? FreshRescore(*daemon, step.line) : std::string();
      if (failing) {
        ASSERT_TRUE(
            FaultInjector::Global().Configure("stage/embedding=1.0").ok());
      }
      const std::string got = Execute(daemon.get(), step.line);
      if (failing) {
        FaultInjector::Global().Disable();
        EXPECT_NE(got.find("\"status\": \"Internal\""), std::string::npos)
            << got;
      } else if (step.line.find("timeout") != std::string::npos) {
        EXPECT_NE(got.find("\"status\": \"DeadlineExceeded\""),
                  std::string::npos)
            << got;
      } else {
        EXPECT_TRUE(ResponseOk(got)) << got;
        if (rescore) {
          EXPECT_EQ(got, want) << "degree " << degree;
        }
      }
      if (rescore) ++(step.hit ? hits : misses);
      const std::vector<int64_t> counters = CacheCounters(*daemon);
      ASSERT_EQ(counters.size(), 3u);
      EXPECT_EQ(counters[1], hits) << step.line;
      EXPECT_EQ(counters[2], misses) << step.line;
    }
    EXPECT_EQ(hits, 8);
    EXPECT_EQ(misses, 11);
    // Three refresh calls, the failed one included, each a new generation.
    EXPECT_EQ(CacheCounters(*daemon)[0], 3);
  }
}

TEST(ServeTest, RescoreCacheSkipsDegradedEnsemble) {
  const std::string line =
      R"({"id": 1, "op": "rescore", "detector": "ensemble", "top": 8})";
  auto daemon = MakeDaemon(QuickOptions());
  const std::string clean = FreshRescore(*daemon, line);

  // Every member failing is a stage error: nothing to cache.
  ASSERT_TRUE(FaultInjector::Global().Configure("od/ensemble-member=1").ok());
  const std::string failed = Execute(daemon.get(), line);
  FaultInjector::Global().Disable();
  EXPECT_NE(failed.find("\"status\": \"Internal\""), std::string::npos)
      << failed;

  // Some members failing answers ok from the survivors; that ranking does
  // not stand for (ensemble, seed) either.
  std::string spec;
  std::string degraded;
  const PipelineArtifacts& artifacts = daemon->artifacts();
  for (uint64_t seed = 0; seed < 200 && spec.empty(); ++seed) {
    const std::string candidate =
        "seed=" + std::to_string(seed) + ",od/ensemble-member=0.5";
    ASSERT_TRUE(FaultInjector::Global().Configure(candidate).ok());
    auto result = RescoreArtifacts(artifacts, DetectorKind::kEnsemble,
                                   artifacts.seed);
    if (result.ok() && result.value().degraded()) {
      spec = candidate;
      degraded = RenderScoredGroupsResponse(1, ServeOp::kRescore,
                                            result.value().scored_groups, 8);
    }
  }
  FaultInjector::Global().Disable();
  ASSERT_FALSE(spec.empty()) << "no fault seed degraded the ensemble";
  ASSERT_NE(degraded, clean);
  ASSERT_TRUE(FaultInjector::Global().Configure(spec).ok());
  EXPECT_EQ(Execute(daemon.get(), line), degraded);
  FaultInjector::Global().Disable();

  // With the injector off the next rescore refits (a miss) and matches a
  // fresh fit; only then does the cache answer.
  EXPECT_EQ(Execute(daemon.get(), line), clean);
  EXPECT_EQ(CacheCounters(*daemon), (std::vector<int64_t>{0, 0, 3}));
  EXPECT_EQ(Execute(daemon.get(), line), clean);
  EXPECT_EQ(CacheCounters(*daemon), (std::vector<int64_t>{0, 1, 3}));
}

TEST(ServeTest, InjectedRefreshFaultUnprimesAndTheNextRefreshIsFull) {
  // The stage/refresh point unprimes the cache it was handed.
  ASSERT_TRUE(FaultInjector::Global().Configure("stage/refresh=1.0").ok());
  RefreshState primed_state;
  primed_state.primed = true;
  PipelineArtifacts scratch = TrainedArtifacts();
  const Status direct = RefreshArtifacts(TestDataset().graph, QuickOptions(),
                                         {}, &primed_state, &scratch);
  FaultInjector::Global().Disable();
  EXPECT_EQ(direct.code(), StatusCode::kInternal) << direct.ToString();
  EXPECT_FALSE(primed_state.primed);

  // Through the daemon: a primed cache, a mutation, a refresh failed by the
  // fault, then a refresh that resamples every anchor and answers exactly
  // what a never-failed daemon's first (full) refresh over the same graph
  // answers.
  const auto [u, v] = AbsentEdge();
  const std::string edge = "{\"id\": 2, \"op\": \"add-edge\", \"u\": " +
                           std::to_string(u) + ", \"v\": " +
                           std::to_string(v) + "}";
  const std::string refresh = R"({"id": 4, "op": "refresh", "top": 4})";
  auto daemon = MakeDaemon(QuickOptions());
  ASSERT_TRUE(ResponseOk(Execute(daemon.get(), R"({"id": 1, "op": "refresh"})")));
  ASSERT_TRUE(ResponseOk(Execute(daemon.get(), edge)));
  ASSERT_TRUE(FaultInjector::Global().Configure("stage/refresh=1.0").ok());
  const std::string failed =
      Execute(daemon.get(), R"({"id": 3, "op": "refresh"})");
  FaultInjector::Global().Disable();
  EXPECT_NE(failed.find("\"status\": \"Internal\""), std::string::npos)
      << failed;
  EXPECT_NE(failed.find("stage/refresh"), std::string::npos) << failed;

  const std::string full = Execute(daemon.get(), refresh);
  auto parsed = ParseJsonText(full);
  ASSERT_TRUE(parsed.ok()) << full;
  EXPECT_EQ(IntMember(parsed.value(), "refreshed_anchors"),
            static_cast<int64_t>(daemon->artifacts().anchors.size()));
  EXPECT_EQ(IntMember(parsed.value(), "reused_anchors"), 0);

  auto fresh = MakeDaemon(QuickOptions());
  ASSERT_TRUE(ResponseOk(Execute(fresh.get(), edge)));
  EXPECT_EQ(full, Execute(fresh.get(), refresh));
}

TEST(ServeTest, ArtifactLoadRetryableClassifiesTheCommitWindow) {
  EXPECT_TRUE(ArtifactLoadRetryable(Status::IoError("transient open")));
  // The save path's two-rename commit can leave the directory briefly
  // absent; NotFound is the retryable signature of that window.
  EXPECT_TRUE(ArtifactLoadRetryable(Status::NotFound("no manifest")));
  EXPECT_FALSE(ArtifactLoadRetryable(Status::InvalidArgument("bad path")));
  EXPECT_FALSE(ArtifactLoadRetryable(Status::DataLoss("checksum mismatch")));
}

}  // namespace
}  // namespace grgad
