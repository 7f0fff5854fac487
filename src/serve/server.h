// The resident serving daemon behind `grgad serve`.
//
// A ServeDaemon owns everything a request would otherwise pay for on every
// CLI invocation: the host graph stays mapped, the trained
// PipelineArtifacts stay loaded, the traversal-workspace pools stay
// prewarmed (PrewarmPipelineState), and one shared MatrixArena keeps
// training buffers warm across anchor-score retrains. Serve() runs one
// line-delimited JSON session: an inline reader thread parses and admits
// requests into the bounded RequestQueue, an executor thread drains
// whole-backlog batches and runs them through the regular stage entry
// points (RunPipeline / RescoreArtifacts / RunScoringStage) — one request
// at a time, each internally parallel at full GRGAD_THREADS.
//
// Live mutations: the daemon owns a DynamicGraph seeded from the host
// graph. add-edge/remove-edge requests splice into its packed Graph
// through the same admission queue as queries (so interleavings are
// exactly admission order), an AnchorDirtyTracker marks the anchors whose
// invalidation balls each mutation touches, and a refresh request
// re-samples only those anchors (RefreshArtifacts), rewriting the resident
// artifacts in place. Anchor-score, refresh and snapshots all read that
// one Graph (PackedView), so they always see the mutated edges.
// Single-threaded execution is what makes unguarded mutation safe.
//
// Determinism: a response is a pure function of (request, resident
// artifacts, base options) — batch items execute sequentially in admission
// order on shared-but-value-neutral state (pools and arena recycle memory,
// never values), responses carry no timestamps, and scores render at 17
// significant digits. Batched output is therefore bitwise identical to
// running the same requests one-by-one through the stage functions, at any
// GRGAD_THREADS and any admission order (tests/serve_test.cc).
//
// Scoring once per generation: the resident artifacts change only when a
// refresh runs (live or replayed from the WAL), and every such call starts
// a new artifact generation. Within a generation a rescore is a pure
// function of (detector, seed), so its result is kept in a score cache
// keyed by exactly that, one entry per detector kind (the latest seed
// wins), cleared on every new generation; a rescore renders from a hit.
// Errors, stopped runs and degraded ensemble results are never cached.
// Like the arena, the cache is value-neutral: a rescore reply is still a
// pure function of (request, resident artifacts, base options), byte for
// byte what an uncached RescoreArtifacts would render.
//
// Failure isolation: each request runs under its own RunContext with its
// own deadline; kDeadlineExceeded, injected faults ("serve/admit",
// "serve/execute", and every stage/* point), and bad options become
// per-request error responses — the daemon never exits on a request
// failure. A fired `stop` token (SIGTERM) or a `shutdown` request stops
// admissions and drains everything already admitted before Serve()
// returns.
#ifndef GRGAD_SERVE_SERVER_H_
#define GRGAD_SERVE_SERVER_H_

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/refresh.h"
#include "src/core/stages.h"
#include "src/graph/dynamic_graph.h"
#include "src/sampling/dirty_tracker.h"
#include "src/serve/batcher.h"
#include "src/serve/metrics.h"
#include "src/serve/request.h"
#include "src/serve/wal.h"
#include "src/util/transport.h"

namespace grgad {

struct ServeOptions {
  /// Base pipeline configuration (dataset-independent knobs, detector,
  /// seed, serve.prewarm_workspaces); per-request "set" overrides layer on
  /// top of a copy.
  TpGrGadOptions pipeline;
  /// Admission-queue bound; a full queue rejects with kResourceExhausted.
  size_t max_queue = 64;
  /// Deadline applied to requests that carry no "timeout" (0 = none).
  double default_timeout_seconds = 0.0;
  /// Durability root (WAL + snapshots live under it); "" = memory-only
  /// serving, exactly the pre-durability behavior. The daemon only becomes
  /// durable once EnableDurability() runs.
  std::string state_dir;
};

class ServeDaemon {
 public:
  /// `graph` must outlive the daemon (it seeds the live DynamicGraph);
  /// `artifacts` is the trained resident state rescore/what-if requests
  /// read and refresh rewrites.
  ServeDaemon(const Graph& graph, PipelineArtifacts artifacts,
              ServeOptions options);

  /// Pre-grows the shared traversal-workspace pools for the resident graph
  /// (per pipeline.serve_prewarm_workspaces) so the first request's
  /// candidate stage allocates nothing.
  void Prewarm();

  /// Arms durability under options().state_dir: opens (or creates) the WAL,
  /// restores `snapshot`'s tracker marks and compaction count and moves its
  /// refresh cache in when one was loaded (the caller already seeded the constructor with its graph and
  /// artifacts), and replays the WAL tail above the snapshot's high-water
  /// mark through the same apply/mark/refresh path live traffic takes — so
  /// the daemon resumes bitwise identical to one that never crashed. Call
  /// once, before Serve(); a failure means the durable state is unusable
  /// and the caller must not serve from it.
  Status EnableDurability(LoadedServeSnapshot* snapshot);

  /// Forces a snapshot now (graph + artifacts + tracker + refresh cache +
  /// WAL high-water mark) and truncates the replayed WAL prefix. The
  /// `snapshot` serve op, the cadence path, and graceful drain all land
  /// here. FailedPrecondition when durability is not enabled.
  Status SnapshotNow();

  /// Serves one session over `channel` until the peer closes the stream,
  /// `stop` fires, or a shutdown request lands — then drains every admitted
  /// request and returns. The returned Status reflects the transport only
  /// (request failures are per-request responses).
  Status Serve(LineChannel* channel, const CancelToken& stop);

  /// Executes one request synchronously — the exact code path batched
  /// requests take, exposed for tests and benches. `status_out` /
  /// `timings_out` (optional) receive the request's outcome and stage
  /// telemetry.
  std::string Execute(const ServeRequest& request,
                      Status* status_out = nullptr,
                      std::vector<StageTiming>* timings_out = nullptr);

  /// Current metrics snapshot (what a `stats` request returns under
  /// "metrics", and what --metrics-out writes at exit).
  std::string MetricsJson() const;

  ServeMetrics& metrics() { return metrics_; }
  const PipelineArtifacts& artifacts() const { return artifacts_; }
  /// The live graph (mutations splice into its PackedView, which every
  /// query reads).
  const DynamicGraph& dynamic_graph() const { return dynamic_; }

  /// True once a shutdown request was executed; the owner's accept loop
  /// checks this between sessions.
  bool shutdown_requested() const {
    return shutdown_.load(std::memory_order_relaxed);
  }

 private:
  void ExecuteLoop(RequestQueue* queue, LineChannel* channel);

  /// Weighted-path-mode fallback: ball invalidation is unsound there, so
  /// every mutation dirties every anchor. Returns the fanout (all anchors).
  int MarkAllAnchors();

  /// Applies one edge mutation with the correct mark ordering (add marks
  /// after, remove marks before) — the single code path live requests AND
  /// WAL replay go through, which is what makes recovery bitwise faithful.
  bool ApplyEdgeMutation(bool add, int u, int v, int* fanout);

  /// Replays one recovered WAL record through the live code paths.
  Status ReplayWalRecord(const WalRecord& record);

  /// The refresh both live requests and WAL replay run: consumes the dirty
  /// marks, starts a new artifact generation, and rewrites the resident
  /// artifacts, filling `stats` (required). On success the refresh's own
  /// scores seed the score cache; on failure every anchor is re-marked for
  /// the next refresh.
  Status RefreshResident(RunContext* ctx, RefreshStats* stats);

  /// The cached scores for (kind, seed) in the current generation, or
  /// nullptr on a miss.
  const std::vector<ScoredGroup>* CachedScores(DetectorKind kind,
                                               uint64_t seed) const;

  /// Cadence check after an applied mutation: snapshot failures degrade to
  /// a durability-error counter (the WAL still covers the session), never
  /// a request failure.
  void MaybeSnapshot();

  const Graph* graph_;
  PipelineArtifacts artifacts_;
  ServeOptions options_;
  // The live-mutation state, all touched only from the executor thread:
  // the mutable graph, the ball-invalidation tracker over the resident
  // anchors, and the refresh path's cached per-anchor candidate lists.
  DynamicGraph dynamic_;
  AnchorDirtyTracker tracker_;
  RefreshState refresh_state_;
  MatrixArena arena_;  ///< Warm training buffers shared across requests.
  // The score cache (executor-thread-only): the artifact generation, and
  // per detector kind the scores of its latest cached seed. An entry with
  // `resident` set is artifacts_.scored_groups itself, seeded by a refresh.
  struct CachedScoring {
    uint64_t seed = 0;
    bool resident = false;
    std::vector<ScoredGroup> scored_groups;
  };
  uint64_t generation_ = 0;
  std::map<DetectorKind, CachedScoring> score_cache_;
  // Durability (executor-thread-only, like the mutation state): the WAL
  // every applied mutation/refresh/compact lands in before its ack, and
  // the mutation count driving the snapshot cadence.
  std::unique_ptr<WriteAheadLog> wal_;
  uint64_t mutations_since_snapshot_ = 0;
  ServeMetrics metrics_;
  std::atomic<bool> shutdown_{false};
  std::atomic<RequestQueue*> live_queue_{nullptr};  ///< Depth gauge source.
};

}  // namespace grgad

#endif  // GRGAD_SERVE_SERVER_H_
