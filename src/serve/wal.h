// Durability for the serving daemon: write-ahead log + state snapshots.
//
// PR 8 made the resident graph mutable; everything it absorbed lived only
// in daemon memory, so a kill -9 silently discarded the session. This layer
// extends PR 6's artifact durability contract (tmp+fsync+rename, checksums,
// typed DataLoss) to the whole serving session:
//
//  - WriteAheadLog appends one checksummed, length-prefixed record per
//    APPLIED operation (edge mutations, refresh, compact) before the client
//    sees the ack, with fsync batching under serve.wal_sync_every. On Open
//    a torn or corrupt tail — truncated record, flipped payload byte,
//    flipped length prefix — is detected by the frame checks, truncated at
//    the last valid record, and reported as a typed DataLoss note; the
//    valid prefix always replays.
//  - SaveServeSnapshot persists the full serving state (canonical packed
//    CSR, resident PipelineArtifacts, dirty-tracker marks, refresh cache,
//    compaction count, WAL high-water mark) atomically under
//    <state_dir>/snapshot, after which the replayed WAL prefix can be
//    truncated.
//  - LoadServeSnapshot + WAL replay through the daemon's own
//    apply/mark/refresh path restart a killed daemon bitwise identical
//    (response bytes and artifact doubles) to one that never crashed.
//
// WAL file format (text, line-framed; <state_dir>/wal.log):
//
//   grgad_wal_version 1 base <B>
//   <seq> <len> <fnv1a-hex> <payload>
//   ...
//
// where <len> is the payload byte count, <fnv1a-hex> is Fnv1a64(payload),
// and <seq> increases by exactly 1 from B+1. Payloads: "mutation <kind>
// <u> <v>" (FormatGraphMutation), "refresh", "compact" — the control
// records let replay re-run artifact refreshes and compactions at their
// original positions, which is what makes recovery bitwise reproducible.
//
// Not thread-safe: owned by the daemon's single executor thread.
#ifndef GRGAD_SERVE_WAL_H_
#define GRGAD_SERVE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/artifacts.h"
#include "src/core/refresh.h"
#include "src/graph/dynamic_graph.h"
#include "src/graph/graph.h"
#include "src/util/atomic_io.h"
#include "src/util/status.h"

namespace grgad {

/// One durable log record, in append order.
struct WalRecord {
  enum class Kind { kMutation, kRefresh, kCompact };
  Kind kind = Kind::kMutation;
  GraphMutation mutation;  ///< Valid only for kMutation.
  uint64_t seq = 0;
};

/// What Open() found on disk (surfaced into the stats durability block).
struct WalOpenStats {
  uint64_t base = 0;             ///< Header base: highest snapshotted seq.
  size_t replayable_records = 0; ///< Valid records parsed from the file.
  size_t truncated_records = 0;  ///< Torn/corrupt tail lines dropped.
  std::string truncation_note;   ///< Typed DataLoss description, "" = clean.
};

class WriteAheadLog {
 public:
  /// Opens (or creates, with base 0) the log at `path`. An existing file is
  /// validated record by record; the first torn or corrupt record truncates
  /// the file there — the damage is recorded in open_stats(), never an
  /// error, because a torn tail is exactly what a crash mid-append leaves.
  /// `sync_every` batches fsyncs: every Nth append syncs (<= 1 = every
  /// append is durable before it returns).
  static Result<std::unique_ptr<WriteAheadLog>> Open(const std::string& path,
                                                     int sync_every);
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Appends one record (seq = last_seq()+1) and applies the fsync policy.
  /// Fault points: "wal/pre-append" (before any byte), "wal/mid-append"
  /// (between the two writes framing the record; as an error the partial
  /// frame is truncated away, in crash mode it leaves a torn tail),
  /// "artifact/fsync" via the batched sync. On error the file is restored
  /// to the pre-append state and nothing was logged.
  Status Append(WalRecord::Kind kind,
                const GraphMutation& mutation = GraphMutation{});

  /// Forces an fsync of any unsynced appends (the `sync` serve op, and the
  /// graceful-drain path).
  Status Sync();

  /// Truncates to an empty log with header base `base_seq` (atomically:
  /// staged header file + rename) — called after a snapshot at `base_seq`
  /// commits. Records at or below the base are covered by the snapshot.
  Status ResetTo(uint64_t base_seq);

  /// The replayable tail Open() parsed (records with seq > base, in order).
  const std::vector<WalRecord>& records() const { return records_; }
  const WalOpenStats& open_stats() const { return open_stats_; }

  uint64_t last_seq() const { return last_seq_; }
  uint64_t appends() const { return appends_; }
  uint64_t bytes_appended() const { return bytes_appended_; }
  uint64_t fsyncs() const { return fsyncs_; }

 private:
  WriteAheadLog() = default;

  std::string path_;
  int fd_ = -1;
  int sync_every_ = 1;
  int unsynced_ = 0;
  uint64_t last_seq_ = 0;
  uint64_t appends_ = 0;
  uint64_t bytes_appended_ = 0;
  uint64_t fsyncs_ = 0;
  std::vector<WalRecord> records_;
  WalOpenStats open_stats_;
};

/// The serving-session state beyond graph + artifacts that recovery must
/// restore for bitwise equivalence: which anchors are marked dirty, the
/// refresh path's per-anchor candidate cache, and the compaction count
/// that compact replies report.
struct ServeStateSnapshot {
  bool all_dirty = false;
  std::vector<int> dirty_anchor_indices;  ///< Ignored when all_dirty.
  RefreshState refresh;  ///< per_anchor is persisted only when primed.
  /// Kept in the manifest header, not serve_state.txt; absent there = 0.
  uint64_t compactions = 0;
};

/// Everything LoadServeSnapshot restores.
struct LoadedServeSnapshot {
  Graph graph;
  PipelineArtifacts artifacts;
  ServeStateSnapshot state;
  uint64_t wal_seq = 0;  ///< Highest WAL seq folded into this snapshot.
};

/// Atomically replaces <state_dir>/snapshot with the given state, on the
/// checksummed-directory store of src/util/atomic_io.h: artifacts/ (written
/// by WriteArtifactFiles, with its own manifest), graph.txt and
/// serve_state.txt, and the snapshot.txt manifest with their sizes and
/// checksums, staged and committed by StageDirReplace. Fault point
/// "snapshot/mid" fires between the graph.txt and serve_state.txt writes —
/// in crash mode the torn tmp directory is simply discarded by the next
/// Save. On ANY failure the previous snapshot is left intact.
Status SaveServeSnapshot(const std::string& state_dir, const Graph& graph,
                         const PipelineArtifacts& artifacts,
                         const ServeStateSnapshot& state, uint64_t wal_seq);

/// Loads <state_dir>/snapshot. NotFound when no snapshot exists (fresh
/// start — the caller falls back to --in/training plus full WAL replay);
/// DataLoss when one exists but is torn or checksum-corrupt (refusing to
/// serve from damaged state beats silently rescoring from the wrong graph).
/// Both stores are read first, in the order a front-to-back load reads
/// them; then ParseServeSnapshot parses them.
Result<LoadedServeSnapshot> LoadServeSnapshot(const std::string& state_dir);

/// The parse half of LoadServeSnapshot: `snapshot` is the store read from
/// `snap_dir`, and `artifacts` what ReadStoreDir returned for its nested
/// artifacts/ directory. graph.txt, serve_state.txt and the artifact
/// payloads parse in one pass on the pool; the error reported is the one a
/// front-to-back load reports first (the manifest header, graph.txt,
/// serve_state.txt, then the artifacts, a missing artifacts/ being
/// DataLoss).
Result<LoadedServeSnapshot> ParseServeSnapshot(
    const StoreDir& snapshot, const Result<StoreDir>& artifacts,
    const std::string& snap_dir);

/// Parses a serve_state.txt payload; DataLoss on any malformed field.
Result<ServeStateSnapshot> ParseServeState(const std::string& text);

}  // namespace grgad

#endif  // GRGAD_SERVE_WAL_H_
