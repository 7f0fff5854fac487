#include "src/core/artifacts.h"

#include "src/core/options.h"
#include "src/util/atomic_io.h"
#include "src/util/parallel.h"
#include "src/util/retry.h"

#include <algorithm>
#include <array>
#include <climits>
#include <filesystem>
#include <iterator>
#include <string_view>
#include <utility>

namespace grgad {
namespace {

// v2 records per-file byte counts + FNV-1a 64 checksums and per-field
// element counts in the manifest, so Load rejects truncation, bit-flips,
// and missing files up front. No other version loads.
constexpr int kFormatVersion = 2;
constexpr const char* kManifestMagic = "grgad_artifacts_version";

std::string PathIn(const std::string& dir, const char* file) {
  return (std::filesystem::path(dir) / file).string();
}

Status Malformed(const std::string& what, const std::string& path) {
  return Status::InvalidArgument(what + " in " + path);
}

// One Serialize/Parse overload per field type. Every parser reads from
// memory with TokenScanner and rejects a malformed token, a short file, and
// data past the declared shape.

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

std::string Serialize(const std::vector<int>& v) {
  std::string out;
  for (size_t i = 0; i < v.size(); ++i) {
    if (i) out += ' ';
    out += std::to_string(v[i]);
  }
  return out + "\n";
}

Status Parse(std::string_view content, const std::string& path,
             std::vector<int>* out) {
  TokenScanner in(content);
  return ScanInts(in, out) ? Status::Ok() : Malformed("bad integer", path);
}

std::string Serialize(const std::vector<double>& v) {
  std::string content;
  for (double x : v) {
    content += FormatExactDouble(x);
    content += '\n';
  }
  return content;
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

std::string Serialize(const Matrix& m) {
  std::string content =
      std::to_string(m.rows()) + " " + std::to_string(m.cols()) + "\n";
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      if (j) content += ' ';
      content += FormatExactDouble(m(i, j));
    }
    content += '\n';
  }
  return content;
}

/// A matrix payload ("<rows> <cols>", then rows·cols decimal cells) parsed
/// in pieces. The cell text is cut at whitespace into pieces of about
/// `piece_bytes`, so no token spans two; each piece parses its own tokens
/// into its own buffer (ParsePiece, one pool task each); Finish walks the
/// pieces in order, places their values by prefix offsets and resolves
/// errors as a left-to-right scan would: the first bad or missing cell,
/// else trailing data.
class MatrixPieces {
 public:
  /// Reads the dims line, allocates `out` and cuts the cell text. A bad
  /// dims line is the parse's status (and there are no pieces).
  Status Begin(std::string_view content, const std::string& path,
               size_t piece_bytes, Matrix* out) {
    path_ = path;
    out_ = out;
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
    const std::string_view cells = in.Remaining();
    const size_t step = std::max<size_t>(piece_bytes, 1);
    size_t begin = 0;
    while (begin < cells.size()) {
      size_t end = std::min(begin + step, cells.size());
      while (end < cells.size() && !TokenScanner::IsSpace(cells[end])) ++end;
      pieces_.emplace_back().text = cells.substr(begin, end - begin);
      begin = end;
    }
    return Status::Ok();
  }

  size_t num_pieces() const { return pieces_.size(); }

  void ParsePiece(size_t i) {
    Piece& piece = pieces_[i];
    piece.values.reserve(piece.text.size() / 16);
    TokenScanner in(piece.text);
    double x = 0.0;
    while (!in.AtEnd()) {
      if (!in.F64(&x)) {
        piece.bad = piece.values.size();
        return;
      }
      piece.values.push_back(x);
    }
  }

  Status Finish() {
    const size_t cells = out_->size();
    size_t offset = 0;  // Cell index of the piece's first token.
    for (const Piece& piece : pieces_) {
      if (piece.bad != kNone) {
        // Tokens past the last cell are trailing data, however they read.
        return offset + piece.bad < cells
                   ? Malformed("bad or missing cell", path_)
                   : Malformed("trailing data", path_);
      }
      if (offset < cells) {
        const size_t n = std::min(piece.values.size(), cells - offset);
        std::copy_n(piece.values.data(), n, out_->data() + offset);
      }
      offset += piece.values.size();
    }
    if (offset < cells) return Malformed("bad or missing cell", path_);
    return offset > cells ? Malformed("trailing data", path_) : Status::Ok();
  }

 private:
  static constexpr size_t kNone = static_cast<size_t>(-1);

  struct Piece {
    std::string_view text;
    std::vector<double> values;
    size_t bad = kNone;  ///< Index in `values` order of the first bad token.
  };

  std::string path_;
  Matrix* out_ = nullptr;
  std::vector<Piece> pieces_;
};

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

std::string Serialize(const std::vector<std::vector<int>>& groups) {
  std::string content = std::to_string(groups.size()) + "\n";
  for (const auto& group : groups) content += Serialize(group);
  return content;
}

Status Parse(std::string_view content, const std::string& path,
             std::vector<std::vector<int>>* out) {
  return ScanCountedLines(content, path, [&](TokenScanner& line) {
    return ScanInts(line, &out->emplace_back())
               ? Status::Ok()
               : Malformed("bad integer", path);
  });
}

std::string Serialize(const std::vector<ScoredGroup>& groups) {
  std::string content = std::to_string(groups.size()) + "\n";
  for (const ScoredGroup& sg : groups) {
    content += FormatExactDouble(sg.score);
    for (int v : sg.nodes) {
      content += ' ';
      content += std::to_string(v);
    }
    content += '\n';
  }
  return content;
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

/// One payload file: its name, and how its field is written and parsed.
/// embeddings.txt has no `parse`: MatrixPieces parses it in pieces.
struct PayloadFile {
  const char* name;
  std::string (*serialize)(const PipelineArtifacts&);
  Status (*parse)(std::string_view, const std::string&, PipelineArtifacts*);
};

template <auto Field>
constexpr PayloadFile FileOf(const char* name) {
  return {name,
          [](const PipelineArtifacts& a) { return Serialize(a.*Field); },
          [](std::string_view content, const std::string& path,
             PipelineArtifacts* a) {
            return Parse(content, path, &(a->*Field));
          }};
}

template <auto Field>
size_t SizeOf(const PipelineArtifacts& a) {
  return (a.*Field).size();
}

// In manifest order. Scored groups are stored on their own (not rebuilt
// from groups+scores): partial runs legitimately have scored_groups without
// group_scores.
constexpr PayloadFile kPayloadFiles[] = {
    FileOf<&PipelineArtifacts::anchors>("anchors.txt"),
    FileOf<&PipelineArtifacts::candidate_groups>("groups.txt"),
    {"embeddings.txt",
     [](const PipelineArtifacts& a) { return Serialize(a.group_embeddings); },
     nullptr},
    FileOf<&PipelineArtifacts::group_scores>("scores.txt"),
    FileOf<&PipelineArtifacts::scored_groups>("scored_groups.txt"),
    FileOf<&PipelineArtifacts::gae_node_errors>("node_errors.txt"),
    FileOf<&PipelineArtifacts::tpgcl_loss_history>("tpgcl_loss.txt"),
};

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

Status WriteArtifactFiles(const PipelineArtifacts& artifacts,
                          const std::string& dir) {
  // Serialize everything up front so the durability window holds no compute.
  ManifestHeader header{kManifestMagic, kFormatVersion,
                        {{"seed", std::to_string(artifacts.seed)}}};
  for (const CountKey& c : kCountKeys) {
    header.values.emplace_back(c.key, std::to_string(c.count(artifacts)));
  }
  std::vector<StoreFile> files;
  for (const PayloadFile& f : kPayloadFiles) {
    files.push_back({f.name, f.serialize(artifacts)});
  }
  return WriteStoreDir(dir, kArtifactManifest, header, files);
}

Status SaveArtifacts(const PipelineArtifacts& artifacts,
                     const std::string& dir) {
  return StageDirReplace(dir, [&](const std::string& tmp) {
    return WriteArtifactFiles(artifacts, tmp);
  });
}

constexpr size_t kNumPayloads = std::size(kPayloadFiles);

struct ArtifactStoreParse::Impl {
  Impl(const StoreDir& stored, std::string dir)
      : stored(stored), dir(std::move(dir)) {}

  const StoreDir& stored;
  const std::string dir;
  Status header;  ///< The manifest header's checks; no tasks unless ok.
  PipelineArtifacts artifacts;
  std::array<const std::string*, kNumPayloads> contents{};
  std::array<Status, kNumPayloads> parsed;
  MatrixPieces embeddings;
};

ArtifactStoreParse::ArtifactStoreParse(const StoreDir& stored,
                                       const std::string& dir,
                                       size_t piece_bytes)
    : impl_(std::make_unique<Impl>(stored, dir)) {
  const ManifestHeader& header = stored.header;
  const std::string manifest_path = PathIn(dir, kArtifactManifest);
  if (header.magic != kManifestMagic) {
    impl_->header = Malformed("unknown manifest magic", manifest_path);
    return;
  }
  if (header.version != kFormatVersion) {
    impl_->header = Malformed(
        "unsupported artifact version " + std::to_string(header.version),
        manifest_path);
    return;
  }
  const std::string* seed = header.Find("seed");
  if (seed == nullptr || !ParseUint64Text(*seed, &impl_->artifacts.seed)) {
    impl_->header =
        Status::DataLoss("bad or missing seed in " + manifest_path);
    return;
  }
  for (size_t i = 0; i < kNumPayloads; ++i) {
    const PayloadFile& f = kPayloadFiles[i];
    impl_->contents[i] = stored.Find(f.name);
    if (impl_->contents[i] != nullptr && f.parse == nullptr) {
      impl_->parsed[i] = impl_->embeddings.Begin(
          *impl_->contents[i], PathIn(dir, f.name), piece_bytes,
          &impl_->artifacts.group_embeddings);
    }
  }
}

ArtifactStoreParse::~ArtifactStoreParse() = default;

void ArtifactStoreParse::AppendTasks(
    std::vector<std::function<void()>>* tasks) {
  Impl* impl = impl_.get();
  if (!impl->header.ok()) return;
  for (size_t p = 0; p < impl->embeddings.num_pieces(); ++p) {
    tasks->push_back([impl, p] { impl->embeddings.ParsePiece(p); });
  }
  for (size_t i = 0; i < kNumPayloads; ++i) {
    if (impl->contents[i] == nullptr || kPayloadFiles[i].parse == nullptr) {
      continue;
    }
    tasks->push_back([impl, i] {
      const PayloadFile& f = kPayloadFiles[i];
      impl->parsed[i] = f.parse(*impl->contents[i], PathIn(impl->dir, f.name),
                                &impl->artifacts);
    });
  }
}

Result<PipelineArtifacts> ArtifactStoreParse::Finish() {
  Impl& impl = *impl_;
  if (!impl.header.ok()) return impl.header;
  const std::string manifest_path = PathIn(impl.dir, kArtifactManifest);
  for (size_t i = 0; i < kNumPayloads; ++i) {
    const PayloadFile& f = kPayloadFiles[i];
    if (impl.contents[i] == nullptr) {
      return Status::DataLoss("manifest " + manifest_path +
                              " has no file entry for " + f.name);
    }
    if (f.parse == nullptr && impl.parsed[i].ok()) {
      impl.parsed[i] = impl.embeddings.Finish();
    }
    GRGAD_RETURN_IF_ERROR(impl.parsed[i]);
  }
  for (const CountKey& c : kCountKeys) {
    const std::string path = PathIn(impl.dir, c.file);
    const std::string* value = impl.stored.header.Find(c.key);
    long long declared = 0;
    if (value == nullptr || !TokenScanner(*value).I64(&declared)) {
      return Status::DataLoss(path + ": manifest has no valid " + c.key);
    }
    const auto actual = static_cast<long long>(c.count(impl.artifacts));
    if (declared != actual) {
      return Status::DataLoss(path + ": manifest declares " + c.key + "=" +
                              std::to_string(declared) + " but file has " +
                              std::to_string(actual));
    }
  }
  return std::move(impl.artifacts);
}

Result<PipelineArtifacts> ParseArtifactStore(const StoreDir& stored,
                                             const std::string& dir,
                                             size_t piece_bytes) {
  ArtifactStoreParse parse(stored, dir, piece_bytes);
  std::vector<std::function<void()>> tasks;
  parse.AppendTasks(&tasks);
  RunConcurrently(tasks);
  return parse.Finish();
}

Result<PipelineArtifacts> LoadArtifacts(const std::string& dir) {
  // Every listed file is present, exactly its recorded size and
  // checksum-clean before any parsing starts.
  auto store = ReadStoreDir(dir, kArtifactManifest);
  if (!store.ok()) return store.status();
  return ParseArtifactStore(store.value(), dir);
}

bool ArtifactLoadRetryable(const Status& status) {
  return DefaultRetryable(status) || status.code() == StatusCode::kNotFound;
}

}  // namespace grgad
