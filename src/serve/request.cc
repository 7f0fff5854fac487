#include "src/serve/request.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace grgad {
namespace {

// ---- JSON parsing -----------------------------------------------------------

constexpr int kMaxDepth = 32;

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue value;
    GRGAD_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipSpace();
    if (pos_ != text_.size()) return Error("trailing characters after value");
    return value;
  }

 private:
  Status Error(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at byte " +
                                   std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return ParseObject(out, depth);
      case '[': return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string);
      case 't':
      case 'f': return ParseLiteral(out);
      case 'n': return ParseLiteral(out);
      default: return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (Consume('}')) return Status::Ok();
    for (;;) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      std::string key;
      GRGAD_RETURN_IF_ERROR(ParseString(&key));
      SkipSpace();
      if (!Consume(':')) return Error("expected ':' after object key");
      JsonValue value;
      GRGAD_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->object.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume('}')) return Status::Ok();
      return Error("expected ',' or '}' in object");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (Consume(']')) return Status::Ok();
    for (;;) {
      JsonValue value;
      GRGAD_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      out->array.push_back(std::move(value));
      SkipSpace();
      if (Consume(',')) continue;
      if (Consume(']')) return Status::Ok();
      return Error("expected ',' or ']' in array");
    }
  }

  Status ParseLiteral(JsonValue* out) {
    auto matches = [&](const char* word) {
      const size_t len = std::char_traits<char>::length(word);
      if (text_.compare(pos_, len, word) != 0) return false;
      pos_ += len;
      return true;
    };
    if (matches("true")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return Status::Ok();
    }
    if (matches("false")) {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return Status::Ok();
    }
    if (matches("null")) {
      out->kind = JsonValue::Kind::kNull;
      return Status::Ok();
    }
    return Error("unknown literal");
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    if (Consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("expected a value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || !std::isfinite(value)) {
      pos_ = start;
      return Error("malformed number '" + token + "'");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number = value;
    return Status::Ok();
  }

  Status ParseString(std::string* out) {
    out->clear();
    ++pos_;  // opening quote
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::Ok();
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Error("malformed \\u escape");
          }
          // BMP code points only (surrogate pairs are out of scope for this
          // wire format — keys and values here are ASCII in practice).
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default: return Error("unknown escape");
      }
    }
    return Error("unterminated string");
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// ---- request validation helpers ---------------------------------------------

/// Exact integer in [lo, hi] from a JSON number; false otherwise.
bool AsInt64(const JsonValue& v, int64_t lo, int64_t hi, int64_t* out) {
  if (v.kind != JsonValue::Kind::kNumber) return false;
  if (v.number != std::floor(v.number)) return false;
  if (v.number < static_cast<double>(lo) || v.number > static_cast<double>(hi)) {
    return false;
  }
  *out = static_cast<int64_t>(v.number);
  return true;
}

Status BadField(const char* field, const char* want) {
  return Status::InvalidArgument(std::string("request field '") + field +
                                 "': expected " + want);
}

// ---- response rendering -----------------------------------------------------

/// 17 significant digits round-trip IEEE-754 doubles exactly, matching the
/// artifact store's on-disk precision — scores survive the wire bit for bit.
std::string ExactNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResponseHead(int64_t id, const char* op, const char* status) {
  return "{\"id\": " + std::to_string(id) + ", \"op\": \"" + op +
         "\", \"status\": \"" + status + "\"";
}

}  // namespace

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

Result<JsonValue> ParseJsonText(const std::string& text) {
  return JsonParser(text).Parse();
}

std::string JsonEscapeText(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string TopGroupsJson(std::vector<ScoredGroup> groups, int top) {
  std::stable_sort(groups.begin(), groups.end(),
                   [](const ScoredGroup& a, const ScoredGroup& b) {
                     return a.score > b.score;
                   });
  std::string out = "[";
  const size_t limit = top < 0 ? 0 : static_cast<size_t>(top);
  for (size_t i = 0; i < groups.size() && i < limit; ++i) {
    if (i) out += ", ";
    out += "{\"score\": " + ExactNumber(groups[i].score) + ", \"nodes\": [";
    for (size_t k = 0; k < groups[i].nodes.size(); ++k) {
      if (k) out += ", ";
      out += std::to_string(groups[i].nodes[k]);
    }
    out += "]}";
  }
  out += "]";
  return out;
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
  if (id == nullptr || !AsInt64(*id, 0, INT64_MAX, &request.id)) {
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
      if (!AsInt64(value, 0, static_cast<int64_t>(1) << 53, &seed)) {
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
      if (!AsInt64(value, 0, 1000000, &top)) {
        return BadField("top", "an integer in [0, 1000000]");
      }
      request.top = static_cast<int>(top);
    } else if (key == "contains") {
      if (!AsInt64(value, 0, INT64_MAX, &request.contains_node)) {
        return BadField("contains", "a non-negative node id");
      }
    } else if (key == "min_size" || key == "max_size") {
      int64_t size = 0;
      if (!AsInt64(value, 0, 1000000000, &size)) {
        return BadField(key.c_str(), "a non-negative integer");
      }
      (key == "min_size" ? request.min_size : request.max_size) =
          static_cast<int>(size);
    } else if (key == "u" || key == "v") {
      int64_t node = 0;
      if (!AsInt64(value, 0, INT64_MAX, &node)) {
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
  std::string out = ResponseHead(id, "anchor-score", "ok");
  out += ", \"num_anchors\": " + std::to_string(artifacts.anchors.size());
  out += ", \"num_groups\": " +
         std::to_string(artifacts.candidate_groups.size());
  out += ", \"top_groups\": " + TopGroupsJson(artifacts.scored_groups, top);
  out += "}";
  return out;
}

std::string RenderScoredGroupsResponse(int64_t id, ServeOp op,
                                       const std::vector<ScoredGroup>& scored,
                                       int top) {
  std::string out = ResponseHead(id, ServeOpName(op), "ok");
  out += ", \"num_groups\": " + std::to_string(scored.size());
  out += ", \"top_groups\": " + TopGroupsJson(scored, top);
  out += "}";
  return out;
}

std::string RenderMutationResponse(int64_t id, ServeOp op, bool applied,
                                   int invalidated_anchors, int num_edges) {
  std::string out = ResponseHead(id, ServeOpName(op), "ok");
  out += std::string(", \"applied\": ") + (applied ? "true" : "false");
  out += ", \"invalidated_anchors\": " + std::to_string(invalidated_anchors);
  out += ", \"num_edges\": " + std::to_string(num_edges);
  out += "}";
  return out;
}

std::string RenderRefreshResponse(int64_t id, size_t refreshed_anchors,
                                  size_t reused_anchors,
                                  const std::vector<ScoredGroup>& scored,
                                  int top) {
  std::string out = ResponseHead(id, "refresh", "ok");
  out += ", \"refreshed_anchors\": " + std::to_string(refreshed_anchors);
  out += ", \"reused_anchors\": " + std::to_string(reused_anchors);
  out += ", \"num_groups\": " + std::to_string(scored.size());
  out += ", \"top_groups\": " + TopGroupsJson(scored, top);
  out += "}";
  return out;
}

std::string RenderCompactResponse(int64_t id, int num_edges,
                                  uint64_t compactions, size_t pending_log) {
  std::string out = ResponseHead(id, "compact", "ok");
  out += ", \"num_edges\": " + std::to_string(num_edges);
  out += ", \"compactions\": " + std::to_string(compactions);
  out += ", \"pending_log\": " + std::to_string(pending_log);
  out += "}";
  return out;
}

std::string RenderSyncResponse(int64_t id, uint64_t wal_seq) {
  std::string out = ResponseHead(id, "sync", "ok");
  out += ", \"wal_seq\": " + std::to_string(wal_seq);
  out += "}";
  return out;
}

std::string RenderSnapshotResponse(int64_t id, uint64_t wal_seq) {
  std::string out = ResponseHead(id, "snapshot", "ok");
  out += ", \"wal_seq\": " + std::to_string(wal_seq);
  out += "}";
  return out;
}

std::string RenderErrorResponse(int64_t id, ServeOp op, const Status& status) {
  return RenderErrorResponse(id, ServeOpName(op), status);
}

std::string RenderErrorResponse(int64_t id, const char* op_name,
                                const Status& status) {
  std::string out = ResponseHead(id, op_name, StatusCodeName(status.code()));
  out += ", \"error\": \"" + JsonEscapeText(status.message()) + "\"}";
  return out;
}

}  // namespace grgad
