#include "tests/reference/reference_payloads.h"

#include <climits>
#include <filesystem>
#include <utility>
#include <vector>

#include "src/core/options.h"
#include "src/graph/dynamic_graph.h"

namespace grgad::reference {
namespace {

constexpr int kFormatVersion = 2;
constexpr const char* kManifestMagic = "grgad_artifacts_version";
constexpr const char* kSnapshotMagic = "grgad_serve_snapshot_version";
constexpr int kSnapshotVersion = 1;
constexpr const char* kSnapshotGraphFile = "graph.txt";
constexpr const char* kSnapshotStateFile = "serve_state.txt";
constexpr const char* kSnapshotArtifactsDir = "artifacts";

std::string PathIn(const std::string& dir, const char* file) {
  return (std::filesystem::path(dir) / file).string();
}

Status Malformed(const std::string& what, const std::string& path) {
  return Status::InvalidArgument(what + " in " + path);
}

/// Appends every remaining token of `in` to `out`; false on the first one
/// that is not a complete in-range integer.
bool ScanInts(TokenScanner& in, std::vector<int>* out) {
  long long v = 0;
  while (!in.AtEnd()) {
    if (!in.I64(&v) || v < INT_MIN || v > INT_MAX) return false;
    out->push_back(static_cast<int>(v));
  }
  return true;
}

Status Parse(std::string_view content, const std::string& path,
             std::vector<int>* out) {
  TokenScanner in(content);
  return ScanInts(in, out) ? Status::Ok() : Malformed("bad integer", path);
}

Status Parse(std::string_view content, const std::string& path,
             std::vector<double>* out) {
  TokenScanner in(content);
  double x = 0.0;
  while (!in.AtEnd()) {
    if (!in.F64(&x)) return Malformed("bad double", path);
    out->push_back(x);
  }
  return Status::Ok();
}

Status ParseMatrixRows(std::string_view content, const std::string& path,
                       Matrix* out) {
  TokenScanner in(content);
  long long rows = 0, cols = 0;
  if (!in.I64(&rows) || !in.I64(&cols)) {
    return Malformed("missing dims line", path);
  }
  // Guard the allocation: dims come from an untrusted file.
  constexpr long long kMaxElements = 1LL << 28;  // 256M doubles = 2 GiB.
  if (rows < 0 || cols < 0 || (cols > 0 && rows > kMaxElements / cols)) {
    return Malformed("implausible dims " + std::to_string(rows) + "x" +
                         std::to_string(cols),
                     path);
  }
  *out = Matrix(static_cast<size_t>(rows), static_cast<size_t>(cols));
  for (size_t i = 0; i < out->rows(); ++i) {
    for (size_t j = 0; j < out->cols(); ++j) {
      if (!in.F64(&(*out)(i, j))) return Malformed("bad or missing cell", path);
    }
  }
  return in.AtEnd() ? Status::Ok() : Malformed("trailing data", path);
}

// Groups and scored groups are line-delimited: a count line, then one group
// per line. The count tells "no groups" from "one empty group", which is an
// empty line.

/// Reads the count line, then hands each of the `count` lines to `line_fn`
/// as a scanner over that line alone.
template <typename LineFn>
Status ScanCountedLines(std::string_view content, const std::string& path,
                        LineFn line_fn) {
  size_t pos = 0;
  const auto next_line = [&] {
    size_t nl = content.find('\n', pos);
    if (nl == std::string_view::npos) nl = content.size();
    TokenScanner line(content.substr(pos, nl - pos));
    pos = nl + 1;
    return line;
  };
  long long count = 0;
  TokenScanner count_line = next_line();
  if (!count_line.I64(&count) || count < 0 || !count_line.AtEnd()) {
    return Malformed("bad count line", path);
  }
  // No reserve: an absurd count fails on the missing lines instead of
  // attempting a giant allocation.
  for (long long i = 0; i < count; ++i) {
    if (pos >= content.size()) return Malformed("truncated file", path);
    TokenScanner line = next_line();
    GRGAD_RETURN_IF_ERROR(line_fn(line));
  }
  if (pos < content.size() && !TokenScanner(content.substr(pos)).AtEnd()) {
    return Malformed("trailing data", path);
  }
  return Status::Ok();
}

Status Parse(std::string_view content, const std::string& path,
             std::vector<std::vector<int>>* out) {
  return ScanCountedLines(content, path, [&](TokenScanner& line) {
    return ScanInts(line, &out->emplace_back())
               ? Status::Ok()
               : Malformed("bad integer", path);
  });
}

Status Parse(std::string_view content, const std::string& path,
             std::vector<ScoredGroup>* out) {
  return ScanCountedLines(content, path, [&](TokenScanner& line) {
    ScoredGroup& sg = out->emplace_back();
    if (!line.F64(&sg.score)) return Malformed("bad score", path);
    if (!ScanInts(line, &sg.nodes)) return Malformed("bad node id", path);
    return Status::Ok();
  });
}

/// One payload file and the parse of its field.
struct PayloadFile {
  const char* name;
  Status (*parse)(std::string_view, const std::string&, PipelineArtifacts*);
};

template <auto Field>
constexpr PayloadFile FileOf(const char* name) {
  return {name, [](std::string_view content, const std::string& path,
                   PipelineArtifacts* a) {
            return Parse(content, path, &(a->*Field));
          }};
}

constexpr PayloadFile kPayloadFiles[] = {
    FileOf<&PipelineArtifacts::anchors>("anchors.txt"),
    FileOf<&PipelineArtifacts::candidate_groups>("groups.txt"),
    {"embeddings.txt",
     [](std::string_view content, const std::string& path,
        PipelineArtifacts* a) {
       return ParseMatrixRows(content, path, &a->group_embeddings);
     }},
    FileOf<&PipelineArtifacts::group_scores>("scores.txt"),
    FileOf<&PipelineArtifacts::scored_groups>("scored_groups.txt"),
    FileOf<&PipelineArtifacts::gae_node_errors>("node_errors.txt"),
    FileOf<&PipelineArtifacts::tpgcl_loss_history>("tpgcl_loss.txt"),
};

template <auto Field>
size_t SizeOf(const PipelineArtifacts& a) {
  return (a.*Field).size();
}

/// A manifest key declaring a parsed field's size, and the file the field
/// comes from. Save records every key; Load requires every key and checks
/// it against what was parsed.
struct CountKey {
  const char* key;
  const char* file;
  size_t (*count)(const PipelineArtifacts&);
};

constexpr CountKey kCountKeys[] = {
    {"num_anchors", "anchors.txt", SizeOf<&PipelineArtifacts::anchors>},
    {"num_groups", "groups.txt", SizeOf<&PipelineArtifacts::candidate_groups>},
    {"embedding_rows", "embeddings.txt",
     [](const PipelineArtifacts& a) { return a.group_embeddings.rows(); }},
    {"embedding_dim", "embeddings.txt",
     [](const PipelineArtifacts& a) { return a.group_embeddings.cols(); }},
    {"num_scores", "scores.txt", SizeOf<&PipelineArtifacts::group_scores>},
    {"num_scored_groups", "scored_groups.txt",
     SizeOf<&PipelineArtifacts::scored_groups>},
    {"num_node_errors", "node_errors.txt",
     SizeOf<&PipelineArtifacts::gae_node_errors>},
    {"num_loss", "tpgcl_loss.txt",
     SizeOf<&PipelineArtifacts::tpgcl_loss_history>},
};

}  // namespace

Status ParseMatrixPayload(std::string_view content, const std::string& path,
                          Matrix* out) {
  return ParseMatrixRows(content, path, out);
}

Result<PipelineArtifacts> ParseArtifactStore(const StoreDir& stored,
                                             const std::string& dir) {
  const ManifestHeader& header = stored.header;
  const std::string manifest_path = PathIn(dir, kArtifactManifest);
  if (header.magic != kManifestMagic) {
    return Malformed("unknown manifest magic", manifest_path);
  }
  if (header.version != kFormatVersion) {
    return Malformed(
        "unsupported artifact version " + std::to_string(header.version),
        manifest_path);
  }

  PipelineArtifacts artifacts;
  const std::string* seed = header.Find("seed");
  if (seed == nullptr || !ParseUint64Text(*seed, &artifacts.seed)) {
    return Status::DataLoss("bad or missing seed in " + manifest_path);
  }
  for (const PayloadFile& f : kPayloadFiles) {
    const std::string* content = stored.Find(f.name);
    if (content == nullptr) {
      return Status::DataLoss("manifest " + manifest_path +
                              " has no file entry for " + f.name);
    }
    GRGAD_RETURN_IF_ERROR(f.parse(*content, PathIn(dir, f.name), &artifacts));
  }
  for (const CountKey& c : kCountKeys) {
    const std::string path = PathIn(dir, c.file);
    const std::string* value = header.Find(c.key);
    long long declared = 0;
    if (value == nullptr || !TokenScanner(*value).I64(&declared)) {
      return Status::DataLoss(path + ": manifest has no valid " + c.key);
    }
    const auto actual = static_cast<long long>(c.count(artifacts));
    if (declared != actual) {
      return Status::DataLoss(path + ": manifest declares " + c.key + "=" +
                              std::to_string(declared) + " but file has " +
                              std::to_string(actual));
    }
  }
  return artifacts;
}

Result<LoadedServeSnapshot> ParseServeSnapshot(
    const StoreDir& stored, const Result<StoreDir>& artifacts_store,
    const std::string& snap_dir) {
  if (stored.header.magic != kSnapshotMagic ||
      stored.header.version != kSnapshotVersion) {
    return Status::DataLoss("snapshot: bad or missing version header under " +
                            snap_dir);
  }
  LoadedServeSnapshot snap;
  const std::string* wal_seq = stored.header.Find("wal_seq");
  long long seq = 0;
  if (wal_seq == nullptr || !TokenScanner(*wal_seq).I64(&seq) || seq < 0) {
    return Status::DataLoss("snapshot: bad wal_seq under " +
                            snap_dir);
  }
  snap.wal_seq = static_cast<uint64_t>(seq);
  long long compactions = 0;
  if (const std::string* text = stored.header.Find("compactions");
      text != nullptr &&
      (!TokenScanner(*text).I64(&compactions) || compactions < 0)) {
    return Status::DataLoss("snapshot: bad compactions under " +
                            snap_dir);
  }
  const std::string* graph_text = stored.Find(kSnapshotGraphFile);
  const std::string* state_text = stored.Find(kSnapshotStateFile);
  if (graph_text == nullptr || state_text == nullptr) {
    return Status::DataLoss("snapshot: manifest does not list " +
                            std::string(kSnapshotGraphFile) + " and " +
                            kSnapshotStateFile);
  }
  auto graph = ParseGraphSnapshot(*graph_text);
  if (!graph.ok()) return graph.status();
  snap.graph = std::move(graph.value());
  auto state = ParseServeState(*state_text);
  if (!state.ok()) return state.status();
  snap.state = std::move(state.value());
  snap.state.compactions = static_cast<uint64_t>(compactions);
  auto artifacts =
      artifacts_store.ok()
          ? reference::ParseArtifactStore(
                artifacts_store.value(),
                PathIn(snap_dir, kSnapshotArtifactsDir))
          : Result<PipelineArtifacts>(artifacts_store.status());
  if (!artifacts.ok()) {
    if (artifacts.status().code() == StatusCode::kNotFound) {
      // A committed snapshot without its artifacts is torn, not absent.
      return Status::DataLoss("snapshot: artifacts missing: " +
                              artifacts.status().ToString());
    }
    return artifacts.status();
  }
  snap.artifacts = std::move(artifacts.value());
  if (snap.state.refresh.primed &&
      snap.state.refresh.per_anchor.size() != snap.artifacts.anchors.size()) {
    return Status::DataLoss(
        "snapshot: refresh cache size disagrees with anchors");
  }
  return snap;
}

}  // namespace grgad::reference
