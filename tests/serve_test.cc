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
//      already-admitted request still answers, in order.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
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
