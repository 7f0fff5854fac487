// The serving daemon's wire format: one JSON object per line, both ways.
//
// Requests (all fields but `id` and `op` optional):
//
//   {"id": 1, "op": "anchor-score", "set": ["sampler.max_groups=64"],
//    "timeout": 5.0, "top": 5}
//       Full pipeline over the resident graph; "set" carries the same
//       key=value overrides as `grgad run --set`, applied on top of the
//       daemon's base options through the method-registry OptionMap.
//   {"id": 2, "op": "rescore", "detector": "ensemble", "seed": 42}
//       Scoring stage only, over the resident artifacts (the daemon-side
//       twin of `grgad rescore`); seed defaults to the artifacts' seed.
//   {"id": 3, "op": "what-if", "contains": 17, "min_size": 3,
//    "max_size": 32, "detector": "ecod"}
//       Re-scores the subset of resident candidate groups passing the
//       filters — the cheap multi-scale what-if query a resident daemon
//       exists for. Detector defaults to the daemon's base detector.
//       A filter no resident group passes — e.g. a "contains" id no group
//       holds, even one beyond the int range — is FailedPrecondition.
//   {"id": 4, "op": "stats"}       live metrics snapshot
//   {"id": 5, "op": "shutdown"}    graceful drain + daemon exit
//   {"id": 6, "op": "add-edge", "u": 17, "v": 42}
//   {"id": 7, "op": "remove-edge", "u": 17, "v": 42}
//       Live graph mutations: spliced into the daemon's live graph through
//       the same admission queue as queries (so mutate/query interleavings
//       are exactly admission order), marking the anchors whose
//       invalidation balls the edge touches. "applied" is false when the
//       mutation was a no-op (duplicate edge, absent edge, bad ids).
//   {"id": 8, "op": "refresh", "top": 5}
//       Incremental artifact refresh: re-samples only the dirty anchors,
//       merges with the cached lists, re-embeds (pooled) + re-scores.
//   {"id": 9, "op": "compact"}
//       Counts a compaction. Mutations already land in the packed graph,
//       so there is nothing to fold; the op, its WAL record and its reply
//       (whose pending_log is always 0) keep their wire form.
//
// Requests are read with the JSON module's parser (src/util/json.h); an
// integer field must be an integer literal within the field's range, read
// exactly (an id of 2^63 or 1e30 is rejected, never wrapped).
//
// Responses echo {"id", "op", "status"} first and are written by the JSON
// module's JsonWriter; scoring responses carry counts and "top_groups" with
// scores at 17 significant digits (exact IEEE-754 round-trip), and
// deliberately NO wall-time fields — timings live in the metrics timeline,
// so a response is a pure function of the request and the resident state.
// That is what makes the batched-vs-sequential bitwise contract testable:
// the same renderers run over a direct RunPipeline/RescoreArtifacts result
// must produce the same bytes (tests/serve_test.cc).
#ifndef GRGAD_SERVE_REQUEST_H_
#define GRGAD_SERVE_REQUEST_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/core/artifacts.h"
#include "src/util/json.h"
#include "src/util/status.h"

namespace grgad {

/// Renders the `top` highest-scoring groups (stable among ties) as a JSON
/// array of {"score": s, "nodes": [...]}, scores at round-trip precision.
/// Serve replies and `grgad run --json` share it; it copies no group.
std::string TopGroupsJson(const std::vector<ScoredGroup>& groups, int top);

// ---- requests ---------------------------------------------------------------

enum class ServeOp {
  kAnchorScore,
  kRescore,
  kWhatIf,
  kStats,
  kShutdown,
  kAddEdge,
  kRemoveEdge,
  kRefresh,
  kCompact,
  kSync,      ///< Force a WAL fsync (durable up to the last acked record).
  kSnapshot,  ///< Force a state snapshot + WAL truncation.
};

const char* ServeOpName(ServeOp op);

struct ServeRequest {
  int64_t id = 0;
  ServeOp op = ServeOp::kStats;
  std::vector<std::string> overrides;  ///< anchor-score "set" entries.
  std::string detector;                ///< rescore (required) / what-if.
  bool has_seed = false;
  uint64_t seed = 0;
  double timeout_seconds = 0.0;  ///< Per-request deadline; 0 = daemon default.
  int top = 5;                   ///< Top groups echoed in the response.
  // what-if filters (kept groups must satisfy all):
  int64_t contains_node = -1;    ///< -1 = no membership filter.
  int min_size = 0;              ///< 0 = unbounded.
  int max_size = 0;              ///< 0 = unbounded.
  // add-edge / remove-edge endpoints (both required for those ops):
  int64_t u = -1;
  int64_t v = -1;
};

/// Parses and validates one request line. InvalidArgument on malformed
/// JSON, a missing/negative id, an unknown op, unknown keys, or per-op
/// requirements (rescore needs "detector").
Result<ServeRequest> ParseServeRequest(const std::string& line);

// ---- responses --------------------------------------------------------------

/// A reply object opened with its {"id", "op", "status"} members; the
/// caller adds the rest and closes it with End().
JsonWriter ResponseHead(int64_t id, const char* op, const char* status);

/// {"id", "op": "anchor-score", "status": "ok", num_anchors, num_groups,
///  top_groups} for a full-pipeline result.
std::string RenderAnchorScoreResponse(int64_t id,
                                      const PipelineArtifacts& artifacts,
                                      int top);

/// {"id", "op", "status": "ok", num_groups, top_groups} for rescore /
/// what-if results.
std::string RenderScoredGroupsResponse(int64_t id, ServeOp op,
                                       const std::vector<ScoredGroup>& scored,
                                       int top);

/// {"id", "op": "add-edge"|"remove-edge", "status": "ok", applied,
///  invalidated_anchors, num_edges} for a graph mutation. `applied` false =
///  structural no-op (duplicate / absent edge, bad ids).
std::string RenderMutationResponse(int64_t id, ServeOp op, bool applied,
                                   int invalidated_anchors, int num_edges);

/// {"id", "op": "refresh", "status": "ok", refreshed_anchors,
///  reused_anchors, num_groups, top_groups} for an incremental refresh.
std::string RenderRefreshResponse(int64_t id, size_t refreshed_anchors,
                                  size_t reused_anchors,
                                  const std::vector<ScoredGroup>& scored,
                                  int top);

/// {"id", "op": "compact", "status": "ok", num_edges, compactions,
///  pending_log} after a compaction; pending_log is always 0, kept for
///  wire compatibility.
std::string RenderCompactResponse(int64_t id, int num_edges,
                                  uint64_t compactions);

/// {"id", "op": "sync", "status": "ok", wal_seq} after a forced WAL fsync.
/// Deterministic: wal_seq is a pure function of the acked op sequence.
std::string RenderSyncResponse(int64_t id, uint64_t wal_seq);

/// {"id", "op": "snapshot", "status": "ok", wal_seq} after a forced
/// snapshot (wal_seq = the high-water mark the snapshot covers).
std::string RenderSnapshotResponse(int64_t id, uint64_t wal_seq);

/// {"id", "op", "status": "<StatusCodeName>", "error": "..."} — the
/// per-request failure surface (deadline expiry, injected faults, bad
/// options). `op_name` form for requests that never parsed.
std::string RenderErrorResponse(int64_t id, ServeOp op, const Status& status);
std::string RenderErrorResponse(int64_t id, const char* op_name,
                                const Status& status);

}  // namespace grgad

#endif  // GRGAD_SERVE_REQUEST_H_
