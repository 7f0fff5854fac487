#include "src/serve/request.h"

#include <algorithm>
#include <numeric>

namespace grgad {
namespace {

Status BadField(const char* field, const char* want) {
  return Status::InvalidArgument(std::string("request field '") + field +
                                 "': expected " + want);
}

}  // namespace

std::string TopGroupsJson(const std::vector<ScoredGroup>& groups, int top) {
  // Only the rendered prefix is ordered, by (score descending, index
  // ascending): the order a stable sort by descending score gives.
  const size_t count =
      std::min(groups.size(), top < 0 ? size_t{0} : static_cast<size_t>(top));
  std::vector<size_t> order(groups.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::partial_sort(order.begin(), order.begin() + count, order.end(),
                    [&groups](size_t a, size_t b) {
                      const double sa = groups[a].score;
                      const double sb = groups[b].score;
                      return sa > sb || (!(sb > sa) && a < b);
                    });
  JsonWriter json;
  json.Array();
  for (size_t k = 0; k < count; ++k) {
    const ScoredGroup& group = groups[order[k]];
    json.Object().Key("score").Num(group.score).Key("nodes").Array();
    for (int node : group.nodes) json.Int(node);
    json.End().End();
  }
  return json.End().Take();
}

JsonWriter ResponseHead(int64_t id, const char* op, const char* status) {
  JsonWriter json;
  json.Object().Key("id").Int(id).Key("op").Str(op).Key("status").Str(status);
  return json;
}

const char* ServeOpName(ServeOp op) {
  switch (op) {
    case ServeOp::kAnchorScore: return "anchor-score";
    case ServeOp::kRescore: return "rescore";
    case ServeOp::kWhatIf: return "what-if";
    case ServeOp::kStats: return "stats";
    case ServeOp::kShutdown: return "shutdown";
    case ServeOp::kAddEdge: return "add-edge";
    case ServeOp::kRemoveEdge: return "remove-edge";
    case ServeOp::kRefresh: return "refresh";
    case ServeOp::kCompact: return "compact";
    case ServeOp::kSync: return "sync";
    case ServeOp::kSnapshot: return "snapshot";
  }
  return "unknown";
}

Result<ServeRequest> ParseServeRequest(const std::string& line) {
  auto parsed = ParseJsonText(line);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& root = parsed.value();
  if (root.kind != JsonValue::Kind::kObject) {
    return Status::InvalidArgument("request: expected a JSON object");
  }

  ServeRequest request;
  const JsonValue* id = root.Find("id");
  if (id == nullptr || !JsonInt64(*id, 0, INT64_MAX, &request.id)) {
    return BadField("id", "a non-negative integer");
  }
  const JsonValue* op = root.Find("op");
  if (op == nullptr || op->kind != JsonValue::Kind::kString) {
    return BadField("op", "a string");
  }
  if (op->string == "anchor-score") request.op = ServeOp::kAnchorScore;
  else if (op->string == "rescore") request.op = ServeOp::kRescore;
  else if (op->string == "what-if") request.op = ServeOp::kWhatIf;
  else if (op->string == "stats") request.op = ServeOp::kStats;
  else if (op->string == "shutdown") request.op = ServeOp::kShutdown;
  else if (op->string == "add-edge") request.op = ServeOp::kAddEdge;
  else if (op->string == "remove-edge") request.op = ServeOp::kRemoveEdge;
  else if (op->string == "refresh") request.op = ServeOp::kRefresh;
  else if (op->string == "compact") request.op = ServeOp::kCompact;
  else if (op->string == "sync") request.op = ServeOp::kSync;
  else if (op->string == "snapshot") request.op = ServeOp::kSnapshot;
  else {
    return Status::InvalidArgument(
        "request: unknown op '" + op->string +
        "' (anchor-score, rescore, what-if, stats, shutdown, add-edge, "
        "remove-edge, refresh, compact, sync, snapshot)");
  }

  for (const auto& [key, value] : root.object) {
    if (key == "id" || key == "op") continue;
    if (key == "set") {
      if (value.kind != JsonValue::Kind::kArray) {
        return BadField("set", "an array of \"key=value\" strings");
      }
      for (const JsonValue& entry : value.array) {
        if (entry.kind != JsonValue::Kind::kString) {
          return BadField("set", "an array of \"key=value\" strings");
        }
        request.overrides.push_back(entry.string);
      }
    } else if (key == "detector") {
      if (value.kind != JsonValue::Kind::kString) {
        return BadField("detector", "a string");
      }
      request.detector = value.string;
    } else if (key == "seed") {
      int64_t seed = 0;
      if (!JsonInt64(value, 0, static_cast<int64_t>(1) << 53, &seed)) {
        return BadField("seed", "a non-negative integer");
      }
      request.seed = static_cast<uint64_t>(seed);
      request.has_seed = true;
    } else if (key == "timeout") {
      if (value.kind != JsonValue::Kind::kNumber || value.number <= 0.0) {
        return BadField("timeout", "a positive number of seconds");
      }
      request.timeout_seconds = value.number;
    } else if (key == "top") {
      int64_t top = 0;
      if (!JsonInt64(value, 0, 1000000, &top)) {
        return BadField("top", "an integer in [0, 1000000]");
      }
      request.top = static_cast<int>(top);
    } else if (key == "contains") {
      if (!JsonInt64(value, 0, INT64_MAX, &request.contains_node)) {
        return BadField("contains", "a non-negative node id");
      }
    } else if (key == "min_size" || key == "max_size") {
      int64_t size = 0;
      if (!JsonInt64(value, 0, 1000000000, &size)) {
        return BadField(key.c_str(), "a non-negative integer");
      }
      (key == "min_size" ? request.min_size : request.max_size) =
          static_cast<int>(size);
    } else if (key == "u" || key == "v") {
      int64_t node = 0;
      if (!JsonInt64(value, 0, INT64_MAX, &node)) {
        return BadField(key.c_str(), "a non-negative node id");
      }
      (key == "u" ? request.u : request.v) = node;
    } else {
      return Status::InvalidArgument(
          "request: unknown field '" + key +
          "' (id, op, set, detector, seed, timeout, top, contains, "
          "min_size, max_size, u, v)");
    }
  }

  if (request.op == ServeOp::kRescore && request.detector.empty()) {
    return Status::InvalidArgument("request: rescore requires \"detector\"");
  }
  if ((request.op == ServeOp::kAddEdge || request.op == ServeOp::kRemoveEdge) &&
      (request.u < 0 || request.v < 0)) {
    return Status::InvalidArgument(
        std::string("request: ") + ServeOpName(request.op) +
        " requires \"u\" and \"v\"");
  }
  return request;
}

std::string RenderAnchorScoreResponse(int64_t id,
                                      const PipelineArtifacts& artifacts,
                                      int top) {
  return ResponseHead(id, "anchor-score", "ok")
      .Key("num_anchors").Int(artifacts.anchors.size())
      .Key("num_groups").Int(artifacts.candidate_groups.size())
      .Key("top_groups").Raw(TopGroupsJson(artifacts.scored_groups, top))
      .End().Take();
}

std::string RenderScoredGroupsResponse(int64_t id, ServeOp op,
                                       const std::vector<ScoredGroup>& scored,
                                       int top) {
  return ResponseHead(id, ServeOpName(op), "ok")
      .Key("num_groups").Int(scored.size())
      .Key("top_groups").Raw(TopGroupsJson(scored, top))
      .End().Take();
}

std::string RenderMutationResponse(int64_t id, ServeOp op, bool applied,
                                   int invalidated_anchors, int num_edges) {
  return ResponseHead(id, ServeOpName(op), "ok")
      .Key("applied").Bool(applied)
      .Key("invalidated_anchors").Int(invalidated_anchors)
      .Key("num_edges").Int(num_edges)
      .End().Take();
}

std::string RenderRefreshResponse(int64_t id, size_t refreshed_anchors,
                                  size_t reused_anchors,
                                  const std::vector<ScoredGroup>& scored,
                                  int top) {
  return ResponseHead(id, "refresh", "ok")
      .Key("refreshed_anchors").Int(refreshed_anchors)
      .Key("reused_anchors").Int(reused_anchors)
      .Key("num_groups").Int(scored.size())
      .Key("top_groups").Raw(TopGroupsJson(scored, top))
      .End().Take();
}

std::string RenderCompactResponse(int64_t id, int num_edges,
                                  uint64_t compactions) {
  return ResponseHead(id, "compact", "ok")
      .Key("num_edges").Int(num_edges)
      .Key("compactions").Int(compactions)
      .Key("pending_log").Int(0)
      .End().Take();
}

std::string RenderSyncResponse(int64_t id, uint64_t wal_seq) {
  return ResponseHead(id, "sync", "ok").Key("wal_seq").Int(wal_seq).End()
      .Take();
}

std::string RenderSnapshotResponse(int64_t id, uint64_t wal_seq) {
  return ResponseHead(id, "snapshot", "ok").Key("wal_seq").Int(wal_seq).End()
      .Take();
}

std::string RenderErrorResponse(int64_t id, ServeOp op, const Status& status) {
  return RenderErrorResponse(id, ServeOpName(op), status);
}

std::string RenderErrorResponse(int64_t id, const char* op_name,
                                const Status& status) {
  return ResponseHead(id, op_name, StatusCodeName(status.code()))
      .Key("error").Str(status.message())
      .End().Take();
}

}  // namespace grgad
