// Durability contracts (PR 9 acceptance gates):
//   1. WAL framing — append/reopen round-trips every record; a torn or
//      corrupt tail (truncated record, flipped payload byte, flipped length
//      prefix) is detected, truncated at the last valid record, and
//      reported as a typed DataLoss note — never an error, never a crash,
//   2. snapshots — SaveServeSnapshot/LoadServeSnapshot round-trip the full
//      serving state exactly (graph, artifact doubles, tracker marks,
//      refresh cache, WAL high-water mark); a missing snapshot is NotFound,
//      a corrupt one is DataLoss,
//   3. recovery equivalence — a daemon restarted from snapshot + WAL tail
//      (including a stale snapshot whose records still sit in the WAL)
//      answers byte-identically to one that never died, and its resident
//      artifact doubles match exactly.
// The kill -9 sweep over the crash fault points lives in
// tests/crash_recovery_test.cc; this file covers the same machinery
// in-process.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/core/artifacts.h"
#include "src/core/method_registry.h"
#include "src/core/pipeline.h"
#include "src/core/stages.h"
#include "src/data/example_graph.h"
#include "src/graph/dynamic_graph.h"
#include "src/serve/request.h"
#include "src/serve/server.h"
#include "src/serve/wal.h"
#include "src/util/atomic_io.h"
#include "src/util/fault.h"
#include "src/util/status.h"

namespace grgad {
namespace {

namespace fs = std::filesystem;

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

fs::path TempDir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / ("grgad_wal_test_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

GraphMutation EdgeMutation(bool add, int u, int v) {
  GraphMutation m;
  m.kind = add ? GraphMutation::Kind::kAddEdge : GraphMutation::Kind::kRemoveEdge;
  m.u = u;
  m.v = v;
  return m;
}

std::string Slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void Spit(const fs::path& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  ASSERT_TRUE(out.flush().good());
}

// ---- WAL framing ------------------------------------------------------------

TEST(WalTest, AppendReopenRoundtrip) {
  const fs::path dir = TempDir("roundtrip");
  const std::string path = (dir / "wal.log").string();
  {
    auto wal = WriteAheadLog::Open(path, /*sync_every=*/1);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    EXPECT_EQ(wal.value()->last_seq(), 0u);
    EXPECT_TRUE(
        wal.value()->Append(WalRecord::Kind::kMutation, EdgeMutation(true, 3, 9))
            .ok());
    EXPECT_TRUE(wal.value()->Append(WalRecord::Kind::kRefresh).ok());
    EXPECT_TRUE(wal.value()
                    ->Append(WalRecord::Kind::kMutation,
                             EdgeMutation(false, 3, 9))
                    .ok());
    EXPECT_TRUE(wal.value()->Append(WalRecord::Kind::kCompact).ok());
    EXPECT_EQ(wal.value()->last_seq(), 4u);
    EXPECT_EQ(wal.value()->appends(), 4u);
  }
  auto reopened = WriteAheadLog::Open(path, 1);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const WriteAheadLog& wal = *reopened.value();
  EXPECT_EQ(wal.open_stats().base, 0u);
  EXPECT_EQ(wal.open_stats().truncated_records, 0u);
  EXPECT_EQ(wal.open_stats().truncation_note, "");
  ASSERT_EQ(wal.records().size(), 4u);
  EXPECT_EQ(wal.records()[0].kind, WalRecord::Kind::kMutation);
  EXPECT_EQ(wal.records()[0].mutation.kind, GraphMutation::Kind::kAddEdge);
  EXPECT_EQ(wal.records()[0].mutation.u, 3);
  EXPECT_EQ(wal.records()[0].mutation.v, 9);
  EXPECT_EQ(wal.records()[0].seq, 1u);
  EXPECT_EQ(wal.records()[1].kind, WalRecord::Kind::kRefresh);
  EXPECT_EQ(wal.records()[2].mutation.kind, GraphMutation::Kind::kRemoveEdge);
  EXPECT_EQ(wal.records()[3].kind, WalRecord::Kind::kCompact);
  EXPECT_EQ(wal.last_seq(), 4u);
}

TEST(WalTest, FsyncBatchingHonorsSyncEvery) {
  const fs::path dir = TempDir("sync_every");
  auto wal = WriteAheadLog::Open((dir / "wal.log").string(), /*sync_every=*/3);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  const uint64_t base_fsyncs = wal.value()->fsyncs();
  EXPECT_TRUE(
      wal.value()->Append(WalRecord::Kind::kMutation, EdgeMutation(true, 0, 1))
          .ok());
  EXPECT_TRUE(
      wal.value()->Append(WalRecord::Kind::kMutation, EdgeMutation(true, 0, 2))
          .ok());
  EXPECT_EQ(wal.value()->fsyncs(), base_fsyncs);  // Batching: 2 < 3 unsynced.
  EXPECT_TRUE(
      wal.value()->Append(WalRecord::Kind::kMutation, EdgeMutation(true, 0, 3))
          .ok());
  EXPECT_EQ(wal.value()->fsyncs(), base_fsyncs + 1);  // Third append syncs.
  EXPECT_TRUE(wal.value()->Sync().ok());  // Explicit sync always syncs.
  EXPECT_EQ(wal.value()->fsyncs(), base_fsyncs + 2);
}

/// Appends `n` mutation records and returns the WAL file's bytes.
std::string BuildWalFile(const fs::path& path, int n) {
  auto wal = WriteAheadLog::Open(path.string(), 1);
  EXPECT_TRUE(wal.ok()) << wal.status().ToString();
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(wal.value()
                    ->Append(WalRecord::Kind::kMutation,
                             EdgeMutation(true, i, i + 100))
                    .ok());
  }
  wal.value().reset();  // Closes the fd.
  return Slurp(path);
}

void ExpectTornTail(const fs::path& path, size_t expect_valid,
                    size_t expect_truncated) {
  auto reopened = WriteAheadLog::Open(path.string(), 1);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  const WriteAheadLog& wal = *reopened.value();
  EXPECT_EQ(wal.records().size(), expect_valid);
  EXPECT_EQ(wal.open_stats().truncated_records, expect_truncated);
  EXPECT_NE(wal.open_stats().truncation_note.find("DataLoss"),
            std::string::npos)
      << wal.open_stats().truncation_note;
  EXPECT_EQ(wal.last_seq(), expect_valid);
  // The truncation is physical: a further reopen sees a clean file.
  auto again = WriteAheadLog::Open(path.string(), 1);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value()->records().size(), expect_valid);
  EXPECT_EQ(again.value()->open_stats().truncated_records, 0u);
}

TEST(WalTest, TruncatedTailRecordIsDroppedOnOpen) {
  const fs::path dir = TempDir("torn");
  const fs::path path = dir / "wal.log";
  const std::string bytes = BuildWalFile(path, 3);
  // Chop the last record mid-frame — what a crash mid-append leaves.
  Spit(path, bytes.substr(0, bytes.size() - 7));
  ExpectTornTail(path, 2, 1);
}

TEST(WalTest, FlippedPayloadByteIsDroppedOnOpen) {
  const fs::path dir = TempDir("bitflip");
  const fs::path path = dir / "wal.log";
  std::string bytes = BuildWalFile(path, 3);
  bytes[bytes.size() - 2] ^= 0x04;  // Inside the last record's payload.
  Spit(path, bytes);
  ExpectTornTail(path, 2, 1);
}

TEST(WalTest, FlippedLengthPrefixIsDroppedOnOpen) {
  const fs::path dir = TempDir("lenflip");
  const fs::path path = dir / "wal.log";
  std::string bytes = BuildWalFile(path, 3);
  // The last record's length prefix is the second field on the last line.
  const size_t line = bytes.rfind('\n', bytes.size() - 2) + 1;
  const size_t len_field = bytes.find(' ', line) + 1;
  ASSERT_NE(bytes[len_field], '9');
  bytes[len_field] = '9';  // Claims a longer payload than is framed.
  Spit(path, bytes);
  ExpectTornTail(path, 2, 1);
}

TEST(WalTest, MidFileCorruptionTruncatesEverythingAfterIt) {
  const fs::path dir = TempDir("midfile");
  const fs::path path = dir / "wal.log";
  std::string bytes = BuildWalFile(path, 4);
  // Corrupt record 2 of 4: records 3-4 have valid frames but an unusable
  // predecessor — the log is only trustworthy up to the last contiguous
  // valid prefix.
  const size_t header_end = bytes.find('\n') + 1;
  const size_t record2 = bytes.find('\n', header_end) + 1;
  bytes[bytes.find("mutation", record2)] = 'X';
  Spit(path, bytes);
  ExpectTornTail(path, 1, 3);
}

TEST(WalTest, NodeMutationRecordIsAnUnparseablePayload) {
  // Mutations are edge-only: no grgad version ever wrote a node mutation
  // (serve admits only add-edge and remove-edge). A well-framed record of
  // one, checksum and all, is an unparseable payload and handled like any
  // other: it and everything after it are dropped with a DataLoss note.
  const fs::path dir = TempDir("node_kind");
  const fs::path path = dir / "wal.log";
  std::string bytes = BuildWalFile(path, 2);
  auto frame = [](uint64_t seq, const std::string& payload) {
    return std::to_string(seq) + " " + std::to_string(payload.size()) + " " +
           HexU64(Fnv1a64(payload)) + " " + payload + "\n";
  };
  bytes += frame(3, "mutation add-node 3 -1");
  bytes += frame(4, "mutation add-edge 5 105");
  Spit(path, bytes);
  ExpectTornTail(path, 2, 2);
}

TEST(WalTest, ResetToStartsAnEmptyLogAtTheNewBase) {
  const fs::path dir = TempDir("reset");
  const fs::path path = dir / "wal.log";
  auto wal = WriteAheadLog::Open(path.string(), 1);
  ASSERT_TRUE(wal.ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(wal.value()
                    ->Append(WalRecord::Kind::kMutation,
                             EdgeMutation(true, i, i + 50))
                    .ok());
  }
  ASSERT_TRUE(wal.value()->ResetTo(3).ok());
  EXPECT_EQ(wal.value()->last_seq(), 3u);
  // Appends continue above the base; reopen replays only the new tail.
  ASSERT_TRUE(
      wal.value()->Append(WalRecord::Kind::kMutation, EdgeMutation(true, 9, 90))
          .ok());
  wal.value().reset();
  auto reopened = WriteAheadLog::Open(path.string(), 1);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ(reopened.value()->open_stats().base, 3u);
  ASSERT_EQ(reopened.value()->records().size(), 1u);
  EXPECT_EQ(reopened.value()->records()[0].seq, 4u);
  EXPECT_EQ(reopened.value()->last_seq(), 4u);
}

// ---- graph + serve-state snapshots ------------------------------------------

TEST(WalTest, GraphSnapshotRoundtripIsExact) {
  const Graph& graph = TestDataset().graph;
  const std::string text = SerializeGraphSnapshot(graph);
  auto parsed = ParseGraphSnapshot(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // Bitwise: the round-tripped graph re-serializes to identical bytes
  // (edges in canonical order, attributes at 17 significant digits).
  EXPECT_EQ(SerializeGraphSnapshot(parsed.value()), text);
  EXPECT_EQ(parsed.value().num_nodes(), graph.num_nodes());
  EXPECT_EQ(parsed.value().num_edges(), graph.num_edges());
}

TEST(WalTest, GraphSnapshotParseRejectsDamage) {
  const std::string text = SerializeGraphSnapshot(TestDataset().graph);
  EXPECT_FALSE(ParseGraphSnapshot("").ok());
  EXPECT_FALSE(ParseGraphSnapshot("bogus header\n").ok());
  // Truncation mid-file is DataLoss, not a crash or a partial graph.
  auto torn = ParseGraphSnapshot(text.substr(0, text.size() / 2));
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.status().code(), StatusCode::kDataLoss);
  auto trailing = ParseGraphSnapshot(text + "extra\n");
  ASSERT_FALSE(trailing.ok());
  EXPECT_EQ(trailing.status().code(), StatusCode::kDataLoss);
}

TEST(WalTest, ServeSnapshotRoundtripRestoresEverything) {
  const fs::path dir = TempDir("snapshot");
  ServeStateSnapshot state;
  state.all_dirty = false;
  state.dirty_anchor_indices = {1, 4, 7};
  state.refresh.primed = true;
  // A primed cache must cover every resident anchor (load validates that).
  state.refresh.per_anchor.resize(TrainedArtifacts().anchors.size());
  state.refresh.per_anchor[0] = {{0, 1, 2}, {3, 4}};
  state.refresh.per_anchor[2] = {{5, 6, 7}};
  const Status saved =
      SaveServeSnapshot(dir.string(), TestDataset().graph, TrainedArtifacts(),
                        state, /*wal_seq=*/17);
  ASSERT_TRUE(saved.ok()) << saved.ToString();

  auto loaded = LoadServeSnapshot(dir.string());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const LoadedServeSnapshot& snap = loaded.value();
  EXPECT_EQ(snap.wal_seq, 17u);
  EXPECT_EQ(snap.state.all_dirty, false);
  EXPECT_EQ(snap.state.dirty_anchor_indices, state.dirty_anchor_indices);
  EXPECT_EQ(snap.state.refresh.primed, true);
  EXPECT_EQ(snap.state.refresh.per_anchor, state.refresh.per_anchor);
  EXPECT_EQ(SerializeGraphSnapshot(snap.graph),
            SerializeGraphSnapshot(TestDataset().graph));
  // Artifact doubles round-trip exactly (the PR 6 17-digit contract).
  const PipelineArtifacts& a = TrainedArtifacts();
  const PipelineArtifacts& b = snap.artifacts;
  EXPECT_EQ(b.seed, a.seed);
  EXPECT_EQ(b.anchors, a.anchors);
  EXPECT_EQ(b.candidate_groups, a.candidate_groups);
  ASSERT_EQ(b.scored_groups.size(), a.scored_groups.size());
  for (size_t i = 0; i < a.scored_groups.size(); ++i) {
    EXPECT_EQ(b.scored_groups[i].nodes, a.scored_groups[i].nodes);
    EXPECT_EQ(b.scored_groups[i].score, a.scored_groups[i].score) << i;
  }
  ASSERT_EQ(b.group_embeddings.rows(), a.group_embeddings.rows());
  ASSERT_EQ(b.group_embeddings.cols(), a.group_embeddings.cols());
  for (size_t r = 0; r < a.group_embeddings.rows(); ++r) {
    for (size_t c = 0; c < a.group_embeddings.cols(); ++c) {
      ASSERT_EQ(b.group_embeddings(r, c), a.group_embeddings(r, c));
    }
  }

  // A second save atomically replaces the first.
  state.all_dirty = true;
  ASSERT_TRUE(SaveServeSnapshot(dir.string(), TestDataset().graph,
                                TrainedArtifacts(), state, 23)
                  .ok());
  auto replaced = LoadServeSnapshot(dir.string());
  ASSERT_TRUE(replaced.ok());
  EXPECT_EQ(replaced.value().wal_seq, 23u);
  EXPECT_TRUE(replaced.value().state.all_dirty);
}

TEST(WalTest, MissingSnapshotIsNotFoundCorruptIsDataLoss) {
  const fs::path dir = TempDir("snapdamage");
  auto missing = LoadServeSnapshot(dir.string());
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);

  ServeStateSnapshot state;
  state.all_dirty = true;
  ASSERT_TRUE(SaveServeSnapshot(dir.string(), TestDataset().graph,
                                TrainedArtifacts(), state, 5)
                  .ok());
  // Flip one byte of the persisted graph: the manifest checksum must catch
  // it and refuse to serve from damaged state.
  const fs::path graph_file = dir / "snapshot" / "graph.txt";
  std::string bytes = Slurp(graph_file);
  bytes[bytes.size() / 2] ^= 0x01;
  Spit(graph_file, bytes);
  auto corrupt = LoadServeSnapshot(dir.string());
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), StatusCode::kDataLoss)
      << corrupt.status().ToString();
}

// ---- daemon recovery equivalence --------------------------------------------

std::string Exec(ServeDaemon* daemon, const std::string& line) {
  auto request = ParseServeRequest(line);
  EXPECT_TRUE(request.ok()) << line << ": " << request.status().ToString();
  if (!request.ok()) return "";
  return daemon->Execute(request.value());
}

std::string EdgeOp(int64_t id, bool add, int u, int v) {
  return "{\"id\": " + std::to_string(id) + ", \"op\": \"" +
         (add ? "add-edge" : "remove-edge") + "\", \"u\": " +
         std::to_string(u) + ", \"v\": " + std::to_string(v) + "}";
}

/// First `count` node pairs absent from the example graph.
std::vector<std::pair<int, int>> AbsentEdges(size_t count) {
  const Graph& graph = TestDataset().graph;
  std::vector<std::pair<int, int>> absent;
  for (int a = 0; a < graph.num_nodes() && absent.size() < count; ++a) {
    for (int b = a + 1; b < graph.num_nodes() && absent.size() < count; ++b) {
      if (!graph.HasEdge(a, b)) absent.emplace_back(a, b);
    }
  }
  EXPECT_EQ(absent.size(), count);
  return absent;
}

std::unique_ptr<ServeDaemon> MakeDaemon(const std::string& state_dir) {
  ServeOptions options;
  options.pipeline = QuickOptions();
  options.state_dir = state_dir;
  return std::make_unique<ServeDaemon>(TestDataset().graph, TrainedArtifacts(),
                                       std::move(options));
}

/// CmdServe's restart path in miniature: load the snapshot (if any), seed
/// the daemon with its graph + artifacts, then EnableDurability replays the
/// WAL tail. Returns {snapshot, daemon}; the snapshot must outlive the
/// daemon, which borrows its graph.
struct Recovered {
  std::unique_ptr<LoadedServeSnapshot> snapshot;
  std::unique_ptr<ServeDaemon> daemon;
};

Recovered Recover(const std::string& state_dir) {
  Recovered out;
  auto loaded = LoadServeSnapshot(state_dir);
  if (loaded.ok()) {
    out.snapshot =
        std::make_unique<LoadedServeSnapshot>(std::move(loaded).value());
    ServeOptions options;
    options.pipeline = QuickOptions();
    options.state_dir = state_dir;
    PipelineArtifacts artifacts = std::move(out.snapshot->artifacts);
    out.daemon = std::make_unique<ServeDaemon>(
        out.snapshot->graph, std::move(artifacts), std::move(options));
  } else {
    EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound)
        << loaded.status().ToString();
    out.daemon = MakeDaemon(state_dir);
  }
  const Status durable = out.daemon->EnableDurability(out.snapshot.get());
  EXPECT_TRUE(durable.ok()) << durable.ToString();
  return out;
}

/// The bitwise probe: responses that depend on every recovered double and
/// every recovered mark. Rescore reads the resident artifact embeddings;
/// refresh consumes the dirty marks + refresh cache and re-renders scores.
std::vector<std::string> Probe(ServeDaemon* daemon) {
  return {Exec(daemon, R"({"id": 900, "op": "refresh", "top": 5})"),
          Exec(daemon, R"({"id": 901, "op": "rescore", "detector": "ensemble", "top": 5})")};
}

TEST(WalTest, RecoveryReplaysTheWalTailBitwise) {
  const fs::path dir = TempDir("replay");
  const auto edges = AbsentEdges(2);
  const std::vector<std::string> ops = {
      EdgeOp(1, true, edges[0].first, edges[0].second),
      EdgeOp(2, true, edges[1].first, edges[1].second),
      R"({"id": 3, "op": "refresh", "top": 3})",
      EdgeOp(4, false, edges[0].first, edges[0].second),
  };

  // The reference daemon never crashes and is never durable.
  auto reference = MakeDaemon(/*state_dir=*/"");
  std::vector<std::string> reference_responses;
  for (const std::string& op : ops) {
    reference_responses.push_back(Exec(reference.get(), op));
  }

  // The durable daemon answers identically live, then dies abruptly: no
  // shutdown snapshot, just the destructor (a kill would not even run
  // that — the WAL bytes are already on disk either way).
  {
    Recovered live = Recover(dir.string());
    ASSERT_EQ(live.daemon->dynamic_graph().num_edges(),
              TestDataset().graph.num_edges());
    for (size_t i = 0; i < ops.size(); ++i) {
      EXPECT_EQ(Exec(live.daemon.get(), ops[i]), reference_responses[i]) << i;
    }
  }

  // Restart: no snapshot exists, so recovery replays all four records.
  Recovered restarted = Recover(dir.string());
  EXPECT_EQ(restarted.snapshot, nullptr);
  EXPECT_EQ(restarted.daemon->dynamic_graph().num_edges(),
            TestDataset().graph.num_edges() + 1);
  EXPECT_NE(restarted.daemon->MetricsJson().find("\"replayed_records\": 4"),
            std::string::npos)
      << restarted.daemon->MetricsJson();
  EXPECT_EQ(Probe(restarted.daemon.get()), Probe(reference.get()));
}

TEST(WalTest, SnapshotPlusWalTailRestartsBitwise) {
  const fs::path dir = TempDir("snaptail");
  const auto edges = AbsentEdges(3);
  const std::vector<std::string> before_snapshot = {
      EdgeOp(1, true, edges[0].first, edges[0].second),
      EdgeOp(2, true, edges[1].first, edges[1].second),
      R"({"id": 3, "op": "refresh", "top": 3})",
  };
  const std::vector<std::string> after_snapshot = {
      EdgeOp(4, true, edges[2].first, edges[2].second),
      EdgeOp(5, false, edges[1].first, edges[1].second),
  };

  auto reference = MakeDaemon(/*state_dir=*/"");
  for (const std::string& op : before_snapshot) (void)Exec(reference.get(), op);
  for (const std::string& op : after_snapshot) (void)Exec(reference.get(), op);

  {
    Recovered live = Recover(dir.string());
    for (const std::string& op : before_snapshot) {
      (void)Exec(live.daemon.get(), op);
    }
    ASSERT_TRUE(live.daemon->SnapshotNow().ok());
    for (const std::string& op : after_snapshot) {
      (void)Exec(live.daemon.get(), op);
    }
  }  // Dies with two unsnapshotted WAL records.

  Recovered restarted = Recover(dir.string());
  ASSERT_NE(restarted.snapshot, nullptr);
  // Three adds survive minus one remove: base + 2.
  EXPECT_EQ(restarted.daemon->dynamic_graph().num_edges(),
            TestDataset().graph.num_edges() + 2);
  EXPECT_NE(restarted.daemon->MetricsJson().find("\"replayed_records\": 2"),
            std::string::npos);
  EXPECT_EQ(Probe(restarted.daemon.get()), Probe(reference.get()));
}

TEST(WalTest, StaleSnapshotSkipsWalRecordsItAlreadyCovers) {
  // A snapshot at seq 2 normally truncates the WAL to base 2; simulate the
  // crash window where the full WAL survives alongside it (snapshot
  // committed, truncation never ran). Records 1-2 must NOT replay — the
  // detectable failure is seq 1's add-edge resurrecting an edge that
  // seq 2 removed before the snapshot was cut.
  const fs::path dir = TempDir("stale");
  const auto edges = AbsentEdges(2);
  const std::vector<std::string> covered = {
      EdgeOp(1, true, edges[0].first, edges[0].second),
      EdgeOp(2, false, edges[0].first, edges[0].second),
  };
  const std::string tail = EdgeOp(3, true, edges[1].first, edges[1].second);

  auto reference = MakeDaemon(/*state_dir=*/"");
  for (const std::string& op : covered) (void)Exec(reference.get(), op);
  (void)Exec(reference.get(), tail);

  {
    Recovered live = Recover(dir.string());
    for (const std::string& op : covered) (void)Exec(live.daemon.get(), op);
    ASSERT_TRUE(live.daemon->SnapshotNow().ok());
    (void)Exec(live.daemon.get(), tail);
  }

  // Rebuild the WAL as the pre-truncation file: base 0, all three records.
  const fs::path wal_path = dir / "wal.log";
  fs::remove(wal_path);
  {
    auto wal = WriteAheadLog::Open(wal_path.string(), 1);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value()
                    ->Append(WalRecord::Kind::kMutation,
                             EdgeMutation(true, edges[0].first,
                                          edges[0].second))
                    .ok());
    ASSERT_TRUE(wal.value()
                    ->Append(WalRecord::Kind::kMutation,
                             EdgeMutation(false, edges[0].first,
                                          edges[0].second))
                    .ok());
    ASSERT_TRUE(wal.value()
                    ->Append(WalRecord::Kind::kMutation,
                             EdgeMutation(true, edges[1].first,
                                          edges[1].second))
                    .ok());
  }

  Recovered restarted = Recover(dir.string());
  ASSERT_NE(restarted.snapshot, nullptr);
  EXPECT_EQ(restarted.snapshot->wal_seq, 2u);
  // Only seq 3 replayed: one extra edge, not two.
  EXPECT_EQ(restarted.daemon->dynamic_graph().num_edges(),
            TestDataset().graph.num_edges() + 1);
  EXPECT_NE(restarted.daemon->MetricsJson().find("\"replayed_records\": 1"),
            std::string::npos);
  EXPECT_EQ(Probe(restarted.daemon.get()), Probe(reference.get()));
}

TEST(WalTest, CompactionCountSurvivesSnapshotRecovery) {
  // compact, add, add, snapshot, compact, die: the snapshot covers the
  // first compaction and the WAL tail the second, so the restarted
  // daemon's next compact reply must count three, as the reference's does.
  const fs::path dir = TempDir("compactions");
  const auto edges = AbsentEdges(2);
  const std::vector<std::string> before_snapshot = {
      R"({"id": 1, "op": "compact"})",
      EdgeOp(2, true, edges[0].first, edges[0].second),
      EdgeOp(3, true, edges[1].first, edges[1].second),
  };
  const std::string tail = R"({"id": 4, "op": "compact"})";
  const std::string probe = R"({"id": 5, "op": "compact"})";

  auto reference = MakeDaemon(/*state_dir=*/"");
  for (const std::string& op : before_snapshot) (void)Exec(reference.get(), op);
  (void)Exec(reference.get(), tail);

  {
    Recovered live = Recover(dir.string());
    for (const std::string& op : before_snapshot) {
      (void)Exec(live.daemon.get(), op);
    }
    ASSERT_TRUE(live.daemon->SnapshotNow().ok());
    (void)Exec(live.daemon.get(), tail);
  }

  Recovered restarted = Recover(dir.string());
  ASSERT_NE(restarted.snapshot, nullptr);
  EXPECT_EQ(restarted.snapshot->state.compactions, 1u);
  const std::string reply = Exec(restarted.daemon.get(), probe);
  EXPECT_NE(reply.find("\"compactions\": 3"), std::string::npos) << reply;
  EXPECT_EQ(reply, Exec(reference.get(), probe));
}

TEST(WalTest, UnloggedCompactionIsNotCounted) {
  // A compact whose WAL append fails replies an error; counting it anyway
  // would leave the live daemon one ahead of any recovery of its log.
  const fs::path dir = TempDir("compact_fault");
  {
    Recovered live = Recover(dir.string());
    ASSERT_TRUE(FaultInjector::Global().Configure("wal/pre-append=1.0").ok());
    const std::string failed =
        Exec(live.daemon.get(), R"({"id": 1, "op": "compact"})");
    FaultInjector::Global().Disable();
    EXPECT_NE(failed.find("\"status\": \"IoError\""), std::string::npos)
        << failed;
    EXPECT_EQ(live.daemon->dynamic_graph().stats().compactions, 0u);
    const std::string counted =
        Exec(live.daemon.get(), R"({"id": 2, "op": "compact"})");
    EXPECT_NE(counted.find("\"compactions\": 1"), std::string::npos)
        << counted;
  }
  Recovered restarted = Recover(dir.string());
  EXPECT_EQ(restarted.daemon->dynamic_graph().stats().compactions, 1u);
}

TEST(WalTest, CorruptWalTailRecoversToLastValidStateWithDataLossNote) {
  const fs::path dir = TempDir("cutail");
  const auto edges = AbsentEdges(2);

  // Reference: only the first mutation — the second will be destroyed.
  auto reference = MakeDaemon(/*state_dir=*/"");
  (void)Exec(reference.get(),
             EdgeOp(1, true, edges[0].first, edges[0].second));

  {
    Recovered live = Recover(dir.string());
    (void)Exec(live.daemon.get(),
               EdgeOp(1, true, edges[0].first, edges[0].second));
    (void)Exec(live.daemon.get(),
               EdgeOp(2, true, edges[1].first, edges[1].second));
  }

  // Bit-rot the second record's payload.
  const fs::path wal_path = dir / "wal.log";
  std::string bytes = Slurp(wal_path.string());
  bytes[bytes.size() - 2] ^= 0x08;
  Spit(wal_path, bytes);

  Recovered restarted = Recover(dir.string());
  EXPECT_EQ(restarted.daemon->dynamic_graph().num_edges(),
            TestDataset().graph.num_edges() + 1);
  const std::string metrics = restarted.daemon->MetricsJson();
  EXPECT_NE(metrics.find("\"replayed_records\": 1"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("\"truncated_tail_records\": 1"), std::string::npos)
      << metrics;
  EXPECT_NE(metrics.find("DataLoss"), std::string::npos) << metrics;
  EXPECT_EQ(Probe(restarted.daemon.get()), Probe(reference.get()));
}

}  // namespace
}  // namespace grgad
