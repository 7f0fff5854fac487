// Differential parse of the durable payloads: the pooled parsers
// (ParseArtifactStore, ParseServeSnapshot) against the front-to-back
// serial oracles in tests/reference/reference_payloads.h, on seeded
// mutations of valid embeddings.txt, groups.txt, graph.txt and
// serve_state.txt: bit flips, truncation at and around piece boundaries,
// token splices, extra and missing whitespace, and skewed dims. Every input
// must give equal values bit for bit, or the same StatusCode and message,
// at 1 and 4 threads and at several piece sizes.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/artifacts.h"
#include "src/graph/graph.h"
#include "src/serve/wal.h"
#include "src/util/atomic_io.h"
#include "src/util/rng.h"
#include "src/util/thread_pool.h"
#include "tests/reference/reference_graph.h"
#include "tests/reference/reference_payloads.h"

namespace grgad {
namespace {

namespace fs = std::filesystem;

/// Piece sizes for the artifact parse: one byte (a piece per token), a few
/// tokens, a few rows, and the product default.
constexpr size_t kPieceBytes[] = {1, 29, 300, kArtifactPieceBytes};

struct DegreeGuard {
  ~DegreeGuard() { internal::SetParallelismDegreeForTest(0); }
};

fs::path TempDir(const std::string& name) {
  const fs::path dir =
      fs::temp_directory_path() / ("grgad_payload_parse_test_" + name);
  fs::remove_all(dir);
  return dir;
}

/// Doubles whose %.17g forms vary in length and exponent.
double AwkwardDouble(Rng* rng) {
  switch (rng->UniformInt(uint64_t{5})) {
    case 0: return rng->Normal();
    case 1: return rng->Normal() * 1e-300;
    case 2: return -rng->Uniform() * 1e200;
    case 3: return static_cast<double>(rng->UniformInt(int64_t{-9}, 9));
    default: return rng->Uniform();
  }
}

PipelineArtifacts ValidArtifacts(int groups, int dim) {
  Rng rng(5);
  PipelineArtifacts a;
  a.seed = 17;
  for (int i = 0; i < 12; ++i) a.anchors.push_back(3 * i + 1);
  for (int g = 0; g < groups; ++g) {
    std::vector<int>& group = a.candidate_groups.emplace_back();
    const int size = 1 + static_cast<int>(rng.UniformInt(uint64_t{6}));
    for (int i = 0; i < size; ++i) {
      group.push_back(static_cast<int>(rng.UniformInt(uint64_t{40})));
    }
    a.group_scores.push_back(AwkwardDouble(&rng));
    a.scored_groups.push_back({group, a.group_scores.back()});
  }
  a.group_embeddings = Matrix(groups, dim);
  for (size_t i = 0; i < a.group_embeddings.size(); ++i) {
    a.group_embeddings.data()[i] = AwkwardDouble(&rng);
  }
  for (int v = 0; v < 40; ++v) {
    a.gae_node_errors.push_back(AwkwardDouble(&rng));
  }
  for (int e = 0; e < 5; ++e) a.tpgcl_loss_history.push_back(rng.Normal());
  return a;
}

Graph ValidGraph() {
  Rng rng(9);
  GraphBuilder b(40);
  for (int i = 0; i < 90; ++i) {
    b.AddEdge(static_cast<int>(rng.UniformInt(uint64_t{40})),
              static_cast<int>(rng.UniformInt(uint64_t{40})));
  }
  Matrix x(40, 3);
  for (size_t i = 0; i < x.size(); ++i) x.data()[i] = AwkwardDouble(&rng);
  return b.Build(std::move(x));
}

ServeStateSnapshot ValidState(size_t anchors) {
  ServeStateSnapshot state;
  state.dirty_anchor_indices = {0, 3, 5};
  state.refresh.primed = true;
  for (size_t a = 0; a < anchors; ++a) {
    auto& groups = state.refresh.per_anchor.emplace_back();
    for (size_t g = 0; g < a % 3; ++g) {
      groups.push_back({static_cast<int>(a), static_cast<int>(a + g + 1)});
    }
  }
  return state;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a[i], b[i])) return false;
  }
  return true;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameBits(a.data()[i], b.data()[i])) return false;
  }
  return true;
}

void ExpectSameArtifacts(const PipelineArtifacts& a, const PipelineArtifacts& b,
                         const std::string& where) {
  EXPECT_EQ(a.seed, b.seed) << where;
  EXPECT_EQ(a.anchors, b.anchors) << where;
  EXPECT_EQ(a.candidate_groups, b.candidate_groups) << where;
  EXPECT_TRUE(SameBits(a.group_embeddings, b.group_embeddings)) << where;
  EXPECT_TRUE(SameBits(a.group_scores, b.group_scores)) << where;
  ASSERT_EQ(a.scored_groups.size(), b.scored_groups.size()) << where;
  for (size_t i = 0; i < a.scored_groups.size(); ++i) {
    EXPECT_EQ(a.scored_groups[i].nodes, b.scored_groups[i].nodes) << where;
    EXPECT_TRUE(SameBits(a.scored_groups[i].score, b.scored_groups[i].score))
        << where;
  }
  EXPECT_TRUE(SameBits(a.gae_node_errors, b.gae_node_errors)) << where;
  EXPECT_TRUE(SameBits(a.tpgcl_loss_history, b.tpgcl_loss_history)) << where;
}

template <typename T>
void ExpectSameStatus(const Result<T>& pooled, const Result<T>& serial,
                      const std::string& where) {
  ASSERT_EQ(pooled.ok(), serial.ok())
      << where << "\npooled: " << pooled.status().ToString()
      << "\nserial: " << serial.status().ToString();
  EXPECT_EQ(pooled.status().code(), serial.status().code()) << where;
  EXPECT_EQ(pooled.status().message(), serial.status().message()) << where;
}

std::string& FileIn(StoreDir* store, const std::string& name) {
  for (StoreFile& file : store->files) {
    if (file.name == name) return file.content;
  }
  ADD_FAILURE() << "no payload " << name;
  static std::string none;
  return none;
}

/// One seeded mutation of a valid payload. `piece_bytes` steers the
/// truncations toward the cuts a pooled parse makes.
std::string Mutate(const std::string& valid, size_t piece_bytes, Rng* rng) {
  std::string s = valid;
  if (s.empty()) return s;
  const auto pos = [&] { return rng->UniformInt(uint64_t{s.size()}); };
  switch (rng->UniformInt(uint64_t{8})) {
    case 0: {  // Bit flip.
      s[pos()] ^= static_cast<char>(1u << rng->UniformInt(uint64_t{8}));
      break;
    }
    case 1: {  // Truncation at or next to a piece boundary.
      // Pieces are cut from the end of the first line on.
      const size_t base = std::min(s.find('\n'), s.size());
      const uint64_t pieces = s.size() / piece_bytes + 1;
      const size_t cut = base + piece_bytes * (1 + rng->UniformInt(pieces));
      const int64_t at =
          static_cast<int64_t>(cut) + rng->UniformInt(int64_t{-2}, 2);
      if (at >= 0 && at < static_cast<int64_t>(s.size())) s.resize(at);
      break;
    }
    case 2: {  // Truncation anywhere.
      s.resize(pos());
      break;
    }
    case 3: {  // Token splice: a copied span lands elsewhere.
      const size_t from = pos();
      const size_t len = 1 + rng->UniformInt(uint64_t{40});
      s.insert(pos(), s.substr(from, len));
      break;
    }
    case 4: {  // Extra whitespace.
      static constexpr char kSpace[] = {' ', '\n', '\t', '\r', '\v', '\f'};
      s.insert(pos(), 1 + rng->UniformInt(uint64_t{3}),
               kSpace[rng->UniformInt(uint64_t{6})]);
      break;
    }
    case 5: {  // Missing whitespace: two tokens run together.
      for (int tries = 0; tries < 64; ++tries) {
        const size_t at = pos();
        if (TokenScanner::IsSpace(s[at])) {
          s.erase(at, 1);
          break;
        }
      }
      break;
    }
    case 6: {  // A token past the end: a number, junk, or out of range.
      static const char* const kTails[] = {" 1.5", " x", "\n-", " 1e999"};
      s += kTails[rng->UniformInt(uint64_t{4})];
      break;
    }
    default: {  // Skewed first-line numbers (the matrix dims).
      const size_t nl = s.find('\n');
      const std::string line = s.substr(0, nl);
      static const char* const kSkews[] = {"+1", "-1", "x2", "0", "swap",
                                           "neg", "junk"};
      const std::string skew = kSkews[rng->UniformInt(uint64_t{7})];
      const size_t space = line.find(' ');
      if (space == std::string::npos) break;
      std::string rows = line.substr(0, space);
      std::string cols = line.substr(space + 1);
      std::string& target = rng->Bernoulli(0.5) ? rows : cols;
      // An earlier splice may have grown the number past long long.
      if (target.size() > 12) break;
      const long long value = std::atoll(target.c_str());
      if (skew == "+1") target = std::to_string(value + 1);
      if (skew == "-1") target = std::to_string(value - 1);
      if (skew == "x2") target = std::to_string(value * 2);
      if (skew == "0") target = "0";
      if (skew == "swap") std::swap(rows, cols);
      if (skew == "neg") target = "-" + target;
      if (skew == "junk") target += "e";
      s = rows + " " + cols + (nl == std::string::npos ? "" : s.substr(nl));
      break;
    }
  }
  return s;
}

/// The valid stores, written once through the product writers and read
/// back, so each round mutates only in memory.
struct Corpus {
  std::string artifacts_dir;
  StoreDir artifacts;
  std::string snap_dir;
  StoreDir snapshot;
  StoreDir snapshot_artifacts;
};

Corpus MakeCorpus() {
  Corpus c;
  const PipelineArtifacts artifacts = ValidArtifacts(24, 5);
  const fs::path root = TempDir("corpus");
  c.artifacts_dir = (root / "artifacts").string();
  EXPECT_TRUE(SaveArtifacts(artifacts, c.artifacts_dir).ok());
  auto stored = ReadStoreDir(c.artifacts_dir, kArtifactManifest);
  EXPECT_TRUE(stored.ok()) << stored.status().ToString();
  c.artifacts = stored.value();

  const std::string state_dir = (root / "state").string();
  EXPECT_TRUE(SaveServeSnapshot(state_dir, ValidGraph(), artifacts,
                                ValidState(artifacts.anchors.size()), 9)
                  .ok());
  c.snap_dir = (fs::path(state_dir) / "snapshot").string();
  auto snapshot = ReadStoreDir(c.snap_dir, "snapshot.txt");
  auto nested = ReadStoreDir((fs::path(c.snap_dir) / "artifacts").string(),
                             kArtifactManifest);
  EXPECT_TRUE(snapshot.ok() && nested.ok());
  c.snapshot = snapshot.value();
  c.snapshot_artifacts = nested.value();
  fs::remove_all(root);
  return c;
}

TEST(PayloadParseTest, ValidStoresMatchTheSerialOracle) {
  const Corpus c = MakeCorpus();
  for (size_t piece : kPieceBytes) {
    const auto pooled = ParseArtifactStore(c.artifacts, c.artifacts_dir, piece);
    const auto serial =
        reference::ParseArtifactStore(c.artifacts, c.artifacts_dir);
    ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    ExpectSameArtifacts(pooled.value(), serial.value(),
                        "piece " + std::to_string(piece));
  }
  const auto pooled =
      ParseServeSnapshot(c.snapshot, c.snapshot_artifacts, c.snap_dir);
  ASSERT_TRUE(pooled.ok()) << pooled.status().ToString();
  EXPECT_EQ(pooled.value().wal_seq, 9u);
  EXPECT_EQ(pooled.value().graph.num_edges(), ValidGraph().num_edges());
}

TEST(PayloadParseTest, MutatedArtifactPayloadsMatchTheSerialOracle) {
  DegreeGuard guard;
  const Corpus c = MakeCorpus();
  int failures_seen = 0;
  for (int degree : {1, 4}) {
    internal::SetParallelismDegreeForTest(degree);
    Rng rng(1234);
    for (int round = 0; round < 300; ++round) {
      const char* file = rng.Bernoulli(0.7) ? "embeddings.txt" : "groups.txt";
      const size_t piece = kPieceBytes[rng.UniformInt(std::size(kPieceBytes))];
      StoreDir mutated = c.artifacts;
      std::string& content = FileIn(&mutated, file);
      content = Mutate(content, piece, &rng);
      if (rng.Bernoulli(0.3)) {  // Two mutations, sometimes.
        content = Mutate(content, piece, &rng);
      }
      // Sometimes the other file breaks too: the first in manifest order
      // must win.
      const bool both = rng.Bernoulli(0.2);
      if (both) {
        std::string& other = FileIn(
            &mutated, file == std::string("groups.txt") ? "embeddings.txt"
                                                        : "groups.txt");
        other = Mutate(other, piece, &rng);
      }
      const std::string where = "degree " + std::to_string(degree) +
                                " round " + std::to_string(round) + " " +
                                file + (both ? " and the other" : "") +
                                " piece " + std::to_string(piece);
      const auto pooled = ParseArtifactStore(mutated, c.artifacts_dir, piece);
      const auto serial =
          reference::ParseArtifactStore(mutated, c.artifacts_dir);
      ExpectSameStatus(pooled, serial, where);
      if (pooled.ok() && serial.ok()) {
        ExpectSameArtifacts(pooled.value(), serial.value(), where);
      } else {
        ++failures_seen;
      }
      if (HasFailure()) return;
    }
  }
  // The mutations must actually reach the error paths.
  EXPECT_GT(failures_seen, 200);
}

TEST(PayloadParseTest, MutatedSnapshotPayloadsMatchTheSerialOracle) {
  DegreeGuard guard;
  const Corpus c = MakeCorpus();
  static const char* const kFiles[] = {"graph.txt", "serve_state.txt",
                                       "embeddings.txt", "groups.txt"};
  int failures_seen = 0;
  for (int degree : {1, 4}) {
    internal::SetParallelismDegreeForTest(degree);
    Rng rng(4321);
    for (int round = 0; round < 200; ++round) {
      StoreDir snapshot = c.snapshot;
      StoreDir nested = c.snapshot_artifacts;
      // One or two payloads break, so their errors compete for precedence.
      std::string file;
      const int broken = rng.Bernoulli(0.3) ? 2 : 1;
      for (int b = 0; b < broken; ++b) {
        const std::string name = kFiles[rng.UniformInt(std::size(kFiles))];
        std::string& content =
            name == "graph.txt" || name == "serve_state.txt"
                ? FileIn(&snapshot, name)
                : FileIn(&nested, name);
        content = Mutate(content, kArtifactPieceBytes, &rng);
        file += (b ? "+" : "") + name;
      }
      // Now and then the artifacts directory fails to read as well, so
      // its error competes with the snapshot payloads' for precedence.
      Result<StoreDir> artifacts = nested;
      const uint64_t fate = rng.UniformInt(uint64_t{10});
      if (fate == 0) artifacts = Status::NotFound("no artifacts manifest");
      if (fate == 1) artifacts = Status::DataLoss("artifacts checksum");
      const std::string where = "degree " + std::to_string(degree) +
                                " round " + std::to_string(round) + " " + file;
      const auto pooled = ParseServeSnapshot(snapshot, artifacts, c.snap_dir);
      const auto serial =
          reference::ParseServeSnapshot(snapshot, artifacts, c.snap_dir);
      ExpectSameStatus(pooled, serial, where);
      if (pooled.ok() && serial.ok()) {
        const LoadedServeSnapshot& p = pooled.value();
        const LoadedServeSnapshot& s = serial.value();
        EXPECT_EQ(p.wal_seq, s.wal_seq) << where;
        EXPECT_EQ(reference::EdgeList(p.graph), reference::EdgeList(s.graph))
            << where;
        EXPECT_TRUE(SameBits(p.graph.attributes(), s.graph.attributes()))
            << where;
        EXPECT_EQ(p.state.all_dirty, s.state.all_dirty) << where;
        EXPECT_EQ(p.state.dirty_anchor_indices, s.state.dirty_anchor_indices)
            << where;
        EXPECT_EQ(p.state.refresh.primed, s.state.refresh.primed) << where;
        EXPECT_EQ(p.state.refresh.per_anchor, s.state.refresh.per_anchor)
            << where;
        EXPECT_EQ(p.state.compactions, s.state.compactions) << where;
        ExpectSameArtifacts(p.artifacts, s.artifacts, where);
      } else {
        ++failures_seen;
      }
      if (HasFailure()) return;
    }
  }
  EXPECT_GT(failures_seen, 100);
}

}  // namespace
}  // namespace grgad
