#include "src/serve/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/util/atomic_io.h"
#include "src/util/fault.h"
#include "src/util/parallel.h"

namespace grgad {
namespace {

constexpr const char* kWalHeaderPrefix = "grgad_wal_version 1 base ";
constexpr const char* kSnapshotDirName = "snapshot";
constexpr const char* kSnapshotManifest = "snapshot.txt";
constexpr const char* kSnapshotMagic = "grgad_serve_snapshot_version";
constexpr int kSnapshotVersion = 1;
constexpr const char* kSnapshotGraphFile = "graph.txt";
constexpr const char* kSnapshotStateFile = "serve_state.txt";
constexpr const char* kSnapshotArtifactsDir = "artifacts";

std::string WalHeaderLine(uint64_t base) {
  return std::string(kWalHeaderPrefix) + std::to_string(base) + "\n";
}

/// write(2) the whole buffer, riding out EINTR and short writes.
Status WriteAll(int fd, const char* data, size_t size,
                const std::string& path) {
  size_t done = 0;
  while (done < size) {
    const ssize_t n = ::write(fd, data + done, size - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("wal write failed: " + path + ": " +
                             std::strerror(errno));
    }
    done += static_cast<size_t>(n);
  }
  return Status::Ok();
}

/// The record payload for a kind (the part the checksum covers).
std::string WalPayload(WalRecord::Kind kind, const GraphMutation& mutation) {
  switch (kind) {
    case WalRecord::Kind::kMutation:
      return "mutation " + FormatGraphMutation(mutation);
    case WalRecord::Kind::kRefresh:
      return "refresh";
    case WalRecord::Kind::kCompact:
      return "compact";
  }
  return "";
}

bool ParseWalPayload(const std::string& payload, WalRecord* out) {
  if (payload == "refresh") {
    out->kind = WalRecord::Kind::kRefresh;
    return true;
  }
  if (payload == "compact") {
    out->kind = WalRecord::Kind::kCompact;
    return true;
  }
  constexpr const char* kMutationPrefix = "mutation ";
  if (payload.rfind(kMutationPrefix, 0) == 0) {
    out->kind = WalRecord::Kind::kMutation;
    return ParseGraphMutation(payload.substr(std::strlen(kMutationPrefix)),
                              &out->mutation);
  }
  return false;
}

/// Parses one record line (without the trailing newline). Valid iff the
/// frame is well-formed, the length prefix matches the payload size, the
/// checksum matches, and the seq continues the chain.
bool ParseWalLine(const std::string& line, uint64_t expected_seq,
                  WalRecord* out) {
  // <seq> <len> <hex> <payload> — split on the first three spaces only;
  // the payload may contain spaces itself.
  const size_t s1 = line.find(' ');
  if (s1 == std::string::npos) return false;
  const size_t s2 = line.find(' ', s1 + 1);
  if (s2 == std::string::npos) return false;
  const size_t s3 = line.find(' ', s2 + 1);
  if (s3 == std::string::npos) return false;
  const std::string seq_str = line.substr(0, s1);
  const std::string len_str = line.substr(s1 + 1, s2 - s1 - 1);
  const std::string hex_str = line.substr(s2 + 1, s3 - s2 - 1);
  const std::string payload = line.substr(s3 + 1);
  char* end = nullptr;
  errno = 0;
  const uint64_t seq = std::strtoull(seq_str.c_str(), &end, 10);
  if (end == seq_str.c_str() || *end != '\0' || errno == ERANGE) return false;
  errno = 0;
  const uint64_t len = std::strtoull(len_str.c_str(), &end, 10);
  if (end == len_str.c_str() || *end != '\0' || errno == ERANGE) return false;
  if (seq != expected_seq) return false;
  if (payload.size() != len) return false;
  if (HexU64(Fnv1a64(payload)) != hex_str) return false;
  if (!ParseWalPayload(payload, out)) return false;
  out->seq = seq;
  return true;
}

std::string SerializeServeState(const ServeStateSnapshot& state) {
  std::string out;
  out += "grgad_serve_state_version 1\n";
  out += std::string("all_dirty ") + (state.all_dirty ? "1" : "0") + "\n";
  out += "dirty " + std::to_string(state.dirty_anchor_indices.size());
  // Pieces are appended separately: `" " + std::to_string(i)` trips a
  // GCC 12 -Wrestrict false positive.
  for (int i : state.dirty_anchor_indices) {
    out += ' ';
    out += std::to_string(i);
  }
  out += "\n";
  // An unprimed cache is never read back, so none of its lists is written.
  const RefreshState& refresh = state.refresh;
  const size_t cached = refresh.primed ? refresh.per_anchor.size() : 0;
  out += std::string("refresh_primed ") + (refresh.primed ? "1" : "0") +
         "\n";
  out += "refresh_anchors " + std::to_string(cached) + "\n";
  for (size_t a = 0; a < cached; ++a) {
    const auto& groups = refresh.per_anchor[a];
    out += "a " + std::to_string(groups.size()) + "\n";
    for (const auto& group : groups) {
      out += "g " + std::to_string(group.size());
      for (int id : group) {
        out += ' ';
        out += std::to_string(id);
      }
      out += "\n";
    }
  }
  return out;
}

}  // namespace

Result<ServeStateSnapshot> ParseServeState(const std::string& text) {
  // TokenScanner for the same reason as ParseGraphSnapshot: the refresh
  // cache is one int token per cached candidate, all-anchor serving state
  // runs to hundreds of kilobytes, and recovery pays this parse on every
  // restart.
  TokenScanner in(text);
  long long version = 0;
  if (!in.Keyword("grgad_serve_state_version") || !in.I64(&version) ||
      version != 1) {
    return Status::DataLoss("serve state: bad or missing version header");
  }
  ServeStateSnapshot state;
  long long flag = 0;
  if (!in.Keyword("all_dirty") || !in.I64(&flag) ||
      (flag != 0 && flag != 1)) {
    return Status::DataLoss("serve state: bad all_dirty");
  }
  state.all_dirty = flag == 1;
  long long count = 0;
  if (!in.Keyword("dirty") || !in.I64(&count) || count < 0) {
    return Status::DataLoss("serve state: bad dirty count");
  }
  state.dirty_anchor_indices.reserve(static_cast<size_t>(count));
  for (long long i = 0; i < count; ++i) {
    long long idx = 0;
    if (!in.I64(&idx) || idx < INT_MIN || idx > INT_MAX) {
      return Status::DataLoss("serve state: truncated dirty list");
    }
    state.dirty_anchor_indices.push_back(static_cast<int>(idx));
  }
  if (!in.Keyword("refresh_primed") || !in.I64(&flag) ||
      (flag != 0 && flag != 1)) {
    return Status::DataLoss("serve state: bad refresh_primed");
  }
  state.refresh.primed = flag == 1;
  long long anchors = 0;
  if (!in.Keyword("refresh_anchors") || !in.I64(&anchors) || anchors < 0) {
    return Status::DataLoss("serve state: bad refresh_anchors");
  }
  state.refresh.per_anchor.resize(static_cast<size_t>(anchors));
  for (long long a = 0; a < anchors; ++a) {
    long long groups = 0;
    if (!in.Keyword("a") || !in.I64(&groups) || groups < 0) {
      return Status::DataLoss("serve state: bad anchor group count");
    }
    auto& anchor_groups = state.refresh.per_anchor[static_cast<size_t>(a)];
    anchor_groups.resize(static_cast<size_t>(groups));
    for (long long g = 0; g < groups; ++g) {
      long long len = 0;
      if (!in.Keyword("g") || !in.I64(&len) || len < 0) {
        return Status::DataLoss("serve state: bad group length");
      }
      auto& group = anchor_groups[static_cast<size_t>(g)];
      group.reserve(static_cast<size_t>(len));
      for (long long i = 0; i < len; ++i) {
        long long id = 0;
        if (!in.I64(&id) || id < INT_MIN || id > INT_MAX) {
          return Status::DataLoss("serve state: truncated group members");
        }
        group.push_back(static_cast<int>(id));
      }
    }
  }
  if (!in.AtEnd()) {
    return Status::DataLoss("serve state: trailing data after payload");
  }
  return state;
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& path, int sync_every) {
  namespace fs = std::filesystem;
  auto wal = std::unique_ptr<WriteAheadLog>(new WriteAheadLog());
  wal->path_ = path;
  wal->sync_every_ = sync_every < 1 ? 1 : sync_every;

  std::error_code ec;
  if (!fs::exists(fs::path(path), ec)) {
    // Fresh log: durable header before the first record can land.
    const std::string header = WalHeaderLine(0);
    GRGAD_RETURN_IF_ERROR(WriteTextFile(path, header));
    GRGAD_RETURN_IF_ERROR(FsyncPath(path, /*is_dir=*/false));
    const fs::path parent = fs::path(path).parent_path();
    if (!parent.empty()) {
      GRGAD_RETURN_IF_ERROR(FsyncPath(parent.string(), /*is_dir=*/true));
    }
  } else {
    auto contents = ReadTextFile(path);
    if (!contents.ok()) return contents.status();
    const std::string& text = contents.value();
    // Header line.
    const size_t header_nl = text.find('\n');
    if (header_nl == std::string::npos ||
        text.rfind(kWalHeaderPrefix, 0) != 0) {
      return Status::DataLoss("wal: bad or missing header: " + path);
    }
    const std::string base_str(text, std::strlen(kWalHeaderPrefix),
                               header_nl - std::strlen(kWalHeaderPrefix));
    char* end = nullptr;
    errno = 0;
    wal->open_stats_.base = std::strtoull(base_str.c_str(), &end, 10);
    if (end == base_str.c_str() || *end != '\0' || errno == ERANGE) {
      return Status::DataLoss("wal: bad header base: " + path);
    }
    wal->last_seq_ = wal->open_stats_.base;
    // Records: each must be a complete newline-terminated valid frame that
    // continues the seq chain; the first failure truncates the file there.
    size_t offset = header_nl + 1;
    size_t valid_end = offset;
    while (offset < text.size()) {
      const size_t nl = text.find('\n', offset);
      if (nl == std::string::npos) break;  // Torn trailing partial line.
      WalRecord record;
      if (!ParseWalLine(text.substr(offset, nl - offset), wal->last_seq_ + 1,
                        &record)) {
        break;
      }
      wal->records_.push_back(record);
      wal->last_seq_ = record.seq;
      offset = nl + 1;
      valid_end = offset;
    }
    wal->open_stats_.replayable_records = wal->records_.size();
    if (valid_end < text.size()) {
      // Count the dropped tail lines (a trailing partial counts as one).
      size_t dropped = 0;
      for (size_t p = valid_end; p < text.size();) {
        ++dropped;
        const size_t nl = text.find('\n', p);
        if (nl == std::string::npos) break;
        p = nl + 1;
      }
      wal->open_stats_.truncated_records = dropped;
      wal->open_stats_.truncation_note =
          Status::DataLoss("wal: torn or corrupt tail at byte " +
                           std::to_string(valid_end) + ", dropped " +
                           std::to_string(dropped) + " record(s): " + path)
              .ToString();
      if (::truncate(path.c_str(), static_cast<off_t>(valid_end)) != 0) {
        return Status::IoError("wal: cannot truncate torn tail: " + path +
                               ": " + std::strerror(errno));
      }
      GRGAD_RETURN_IF_ERROR(FsyncPath(path, /*is_dir=*/false));
    }
  }

  wal->fd_ = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (wal->fd_ < 0) {
    return Status::IoError("wal: cannot open for append: " + path + ": " +
                           std::strerror(errno));
  }
  return wal;
}

WriteAheadLog::~WriteAheadLog() {
  if (fd_ >= 0) ::close(fd_);
}

Status WriteAheadLog::Append(WalRecord::Kind kind,
                             const GraphMutation& mutation) {
  if (fd_ < 0) return Status::IoError("wal: not open: " + path_);
  GRGAD_RETURN_IF_ERROR(FaultInjector::Global().Check("wal/pre-append"));
  const std::string payload = WalPayload(kind, mutation);
  const uint64_t seq = last_seq_ + 1;
  const std::string frame = std::to_string(seq) + " " +
                            std::to_string(payload.size()) + " " +
                            HexU64(Fnv1a64(payload)) + " " + payload + "\n";
  struct stat st;
  if (::fstat(fd_, &st) != 0) {
    return Status::IoError("wal: fstat failed: " + path_);
  }
  const off_t size_before = st.st_size;
  // On ANY failure below the partial frame is truncated away so the file
  // never diverges from the acked state (the caller rolls back the
  // in-memory mutation; a surviving record would replay it anyway).
  auto rollback = [&](Status error) {
    (void)::ftruncate(fd_, size_before);
    return error;
  };
  // Two writes framing the record: the gap between them is the torn-tail
  // window the "wal/mid-append" point (and crash mode) targets.
  const size_t half = frame.size() / 2;
  if (Status s = WriteAll(fd_, frame.data(), half, path_); !s.ok()) {
    return rollback(std::move(s));
  }
  if (Status s = FaultInjector::Global().Check("wal/mid-append"); !s.ok()) {
    return rollback(std::move(s));
  }
  if (Status s =
          WriteAll(fd_, frame.data() + half, frame.size() - half, path_);
      !s.ok()) {
    return rollback(std::move(s));
  }
  ++unsynced_;
  if (unsynced_ >= sync_every_) {
    if (Status s = FaultInjector::Global().Check("artifact/fsync"); !s.ok()) {
      return rollback(std::move(s));
    }
    if (::fsync(fd_) != 0) {
      return rollback(Status::IoError("wal: fsync failed: " + path_));
    }
    ++fsyncs_;
    unsynced_ = 0;
  }
  last_seq_ = seq;
  ++appends_;
  bytes_appended_ += frame.size();
  return Status::Ok();
}

Status WriteAheadLog::Sync() {
  if (fd_ < 0) return Status::IoError("wal: not open: " + path_);
  GRGAD_RETURN_IF_ERROR(FaultInjector::Global().Check("artifact/fsync"));
  if (::fsync(fd_) != 0) {
    return Status::IoError("wal: fsync failed: " + path_);
  }
  ++fsyncs_;
  unsynced_ = 0;
  return Status::Ok();
}

Status WriteAheadLog::ResetTo(uint64_t base_seq) {
  namespace fs = std::filesystem;
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  const std::string tmp = path_ + ".tmp";
  const Status staged = [&]() -> Status {
    GRGAD_RETURN_IF_ERROR(WriteTextFile(tmp, WalHeaderLine(base_seq)));
    return FsyncPath(tmp, /*is_dir=*/false);
  }();
  if (!staged.ok()) {
    std::error_code ec;
    fs::remove(fs::path(tmp), ec);
    // The old log is still intact; reopen so appends keep working.
    fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    return staged;
  }
  std::error_code ec;
  fs::rename(fs::path(tmp), fs::path(path_), ec);
  if (ec) {
    std::error_code cleanup;
    fs::remove(fs::path(tmp), cleanup);
    fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    return Status::IoError("wal: cannot commit truncation: " + path_ + ": " +
                           ec.message());
  }
  const fs::path parent = fs::path(path_).parent_path();
  if (!parent.empty()) {
    // Best-effort: the rename already committed.
    (void)FsyncPath(parent.string(), /*is_dir=*/true);
  }
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd_ < 0) {
    return Status::IoError("wal: cannot reopen after truncation: " + path_ +
                           ": " + std::strerror(errno));
  }
  if (base_seq > last_seq_) last_seq_ = base_seq;
  records_.clear();
  unsynced_ = 0;
  return Status::Ok();
}

Status SaveServeSnapshot(const std::string& state_dir, const Graph& graph,
                         const PipelineArtifacts& artifacts,
                         const ServeStateSnapshot& state, uint64_t wal_seq) {
  namespace fs = std::filesystem;
  const std::string snap_dir =
      (fs::path(state_dir) / kSnapshotDirName).string();
  return StageDirReplace(snap_dir, [&](const std::string& tmp) -> Status {
    // The artifacts go first so the snapshot's own directory fsync, the
    // last one, also makes the nested directory's entry durable.
    GRGAD_RETURN_IF_ERROR(WriteArtifactFiles(
        artifacts, (fs::path(tmp) / kSnapshotArtifactsDir).string()));
    ManifestHeader header{kSnapshotMagic, kSnapshotVersion,
                          {{"wal_seq", std::to_string(wal_seq)}}};
    // Omitted at 0, so a never-compacted daemon's manifest keeps the bytes
    // it had before the count was persisted; a missing key loads as 0.
    if (state.compactions > 0) {
      header.values.emplace_back("compactions",
                                 std::to_string(state.compactions));
    }
    // "snapshot/mid" fires between the two payload writes: a crash there
    // leaves only a torn tmp directory, which the commit never publishes.
    return WriteStoreDir(
        tmp, kSnapshotManifest, header,
        {{kSnapshotGraphFile, SerializeGraphSnapshot(graph)},
         {kSnapshotStateFile, SerializeServeState(state)}},
        "snapshot/mid");
  });
}

Result<LoadedServeSnapshot> LoadServeSnapshot(const std::string& state_dir) {
  namespace fs = std::filesystem;
  const fs::path snap_dir = fs::path(state_dir) / kSnapshotDirName;
  auto store = ReadStoreDir(snap_dir.string(), kSnapshotManifest);
  if (!store.ok()) return store.status();
  // The artifacts directory verifies itself through its own manifest. It is
  // read before anything parses, so both stores' payloads parse in one
  // pool pass.
  const Result<StoreDir> artifacts = ReadStoreDir(
      (snap_dir / kSnapshotArtifactsDir).string(), kArtifactManifest);
  return ParseServeSnapshot(store.value(), artifacts, snap_dir.string());
}

Result<LoadedServeSnapshot> ParseServeSnapshot(
    const StoreDir& stored, const Result<StoreDir>& artifacts,
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
    return Status::DataLoss("snapshot: bad wal_seq under " + snap_dir);
  }
  snap.wal_seq = static_cast<uint64_t>(seq);
  long long compactions = 0;
  if (const std::string* text = stored.header.Find("compactions");
      text != nullptr &&
      (!TokenScanner(*text).I64(&compactions) || compactions < 0)) {
    return Status::DataLoss("snapshot: bad compactions under " + snap_dir);
  }
  const std::string* graph_text = stored.Find(kSnapshotGraphFile);
  const std::string* state_text = stored.Find(kSnapshotStateFile);
  if (graph_text == nullptr || state_text == nullptr) {
    return Status::DataLoss("snapshot: manifest does not list " +
                            std::string(kSnapshotGraphFile) + " and " +
                            kSnapshotStateFile);
  }
  // The graph parse is the longest task; the artifact payloads follow.
  Result<Graph> graph = Status::Internal("graph.txt not parsed");
  Result<ServeStateSnapshot> state =
      Status::Internal("serve_state.txt not parsed");
  std::vector<std::function<void()>> tasks = {
      [&] { graph = ParseGraphSnapshot(*graph_text); }};
  std::unique_ptr<ArtifactStoreParse> artifact_parse;
  if (artifacts.ok()) {
    artifact_parse = std::make_unique<ArtifactStoreParse>(
        artifacts.value(),
        (std::filesystem::path(snap_dir) / kSnapshotArtifactsDir).string());
    artifact_parse->AppendTasks(&tasks);
  }
  tasks.push_back([&] { state = ParseServeState(*state_text); });
  RunConcurrently(tasks);

  if (!graph.ok()) return graph.status();
  snap.graph = std::move(graph.value());
  if (!state.ok()) return state.status();
  snap.state = std::move(state.value());
  snap.state.compactions = static_cast<uint64_t>(compactions);
  Result<PipelineArtifacts> loaded =
      artifact_parse != nullptr ? artifact_parse->Finish()
                                : Result<PipelineArtifacts>(artifacts.status());
  if (!loaded.ok()) {
    if (loaded.status().code() == StatusCode::kNotFound) {
      // A committed snapshot without its artifacts is torn, not absent.
      return Status::DataLoss("snapshot: artifacts missing: " +
                              loaded.status().ToString());
    }
    return loaded.status();
  }
  snap.artifacts = std::move(loaded.value());
  if (snap.state.refresh.primed &&
      snap.state.refresh.per_anchor.size() != snap.artifacts.anchors.size()) {
    return Status::DataLoss(
        "snapshot: refresh cache size disagrees with anchors");
  }
  return snap;
}

}  // namespace grgad
