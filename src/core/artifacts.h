// The pipeline's stage outputs, and their persistence.
//
// PipelineArtifacts is everything a TP-GrGAD run produces, stage by stage.
// Save/Load round-trip a run to a directory of small text files so a later
// process can resume from any intermediate product — most usefully,
// re-scoring saved TPGCL embeddings with a different outlier detector
// (RescoreArtifacts in stages.h) without re-training anything. All floating
// point values are written with 17 significant digits, which round-trips
// IEEE-754 doubles exactly: reloaded artifacts score bit-identically.
#ifndef GRGAD_CORE_ARTIFACTS_H_
#define GRGAD_CORE_ARTIFACTS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/types.h"
#include "src/tensor/matrix.h"
#include "src/util/status.h"

namespace grgad {

struct StoreDir;

/// Manifest file name of an artifact directory (ReadStoreDir's argument).
inline constexpr const char* kArtifactManifest = "manifest.txt";

/// Default size of the pieces embeddings.txt is cut into for parsing.
inline constexpr size_t kArtifactPieceBytes = size_t{64} << 10;

/// Everything the pipeline produces, stage by stage.
struct PipelineArtifacts {
  /// Provenance: the pipeline seed of the run that produced these (recorded
  /// in the manifest so a later rescore can reproduce detector seeding).
  uint64_t seed = 42;
  std::vector<int> anchors;
  std::vector<std::vector<int>> candidate_groups;
  Matrix group_embeddings;          ///< m x embed (or m x attr_dim w/o TPGCL).
  std::vector<double> group_scores; ///< Detector output, aligned to groups.
  std::vector<ScoredGroup> scored_groups;
  std::vector<double> gae_node_errors;
  std::vector<double> tpgcl_loss_history;
};

/// Writes `artifacts` under `dir` atomically, on the checksummed-directory
/// store of src/util/atomic_io.h: everything is staged in a sibling
/// `<dir>.tmp`, fsynced, then committed by rename, replacing any previous
/// artifacts. On ANY failure the previous contents of `dir` are left intact
/// (a hard crash between the commit renames can leave `dir` absent —
/// NotFound on load, never a torn mixture). The manifest records per-file
/// sizes and FNV-1a checksums and per-field element counts.
Status SaveArtifacts(const PipelineArtifacts& artifacts,
                     const std::string& dir);

/// Writes the artifact file set (payload files + manifest) into directory
/// `dir` and fsyncs each file plus the directory, with no staging or rename
/// commit of its own. Building block for the serve snapshot, which nests an
/// artifact directory inside its own staged directory; SaveArtifacts is
/// this under StageDirReplace.
Status WriteArtifactFiles(const PipelineArtifacts& artifacts,
                          const std::string& dir);

/// Loads a directory written by SaveArtifacts. Error codes:
///  - NotFound: the directory or its manifest is absent;
///  - InvalidArgument: the manifest is not an artifact manifest of the
///    current version ("unsupported artifact version"), or a payload that
///    passed its checksum is malformed (a bad token, a short file, or data
///    past its declared shape) — the message names the file;
///  - DataLoss: a listed file is missing, truncated or checksum-corrupt,
///    the manifest is malformed or lacks the seed or a count key, or a
///    parsed field disagrees with its declared count — the message names
///    the file;
///  - IoError: a read failed (transient; see ArtifactLoadRetryable).
/// The result compares field-for-field identical, bit for bit, to what was
/// saved.
Result<PipelineArtifacts> LoadArtifacts(const std::string& dir);

/// The parse half of LoadArtifacts, for an artifact directory ReadStoreDir
/// has already read and verified, split into independent tasks so a caller
/// can run them on the pool together with parses of its own (the serve
/// snapshot adds its graph and state). Each payload file is one task,
/// except embeddings.txt, most of the bytes: its cells are cut at
/// whitespace into pieces of about `piece_bytes`, each piece's tokens
/// parse as one task, and Finish places them by prefix offsets. `stored`
/// must outlive this object.
class ArtifactStoreParse {
 public:
  ArtifactStoreParse(const StoreDir& stored, const std::string& dir,
                     size_t piece_bytes = kArtifactPieceBytes);
  ~ArtifactStoreParse();

  /// Appends the parse tasks, longest first. Each writes only its own
  /// outputs; run every one exactly once, in any order, e.g. with
  /// RunConcurrently.
  void AppendTasks(std::vector<std::function<void()>>* tasks);

  /// Once every task has run: the error a front-to-back parse would report
  /// first (the manifest header, then the payloads in manifest order, then
  /// the declared counts), else the artifacts. Values and errors equal the
  /// serial parser's in tests/reference/, bit for bit.
  Result<PipelineArtifacts> Finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// ArtifactStoreParse with its tasks run on the pool: LoadArtifacts after
/// its ReadStoreDir. `piece_bytes` only moves the piece boundaries (tests
/// pass small values to put them everywhere); results never depend on it.
Result<PipelineArtifacts> ParseArtifactStore(
    const StoreDir& stored, const std::string& dir,
    size_t piece_bytes = kArtifactPieceBytes);

/// Retry predicate for LoadArtifacts under concurrent writers: transient
/// read failures (kIoError, the DefaultRetryable category) AND kNotFound.
/// SaveArtifacts commits by renaming `dir` away and the staged replacement
/// into place, so a reader racing the commit can observe the directory
/// briefly absent; that NotFound heals on the next attempt. A directory
/// that never existed also retries — callers pay the bounded backoff
/// (~seconds) before the NotFound surfaces, which is the price of not being
/// able to distinguish the two from the reader's side.
bool ArtifactLoadRetryable(const Status& status);

}  // namespace grgad

#endif  // GRGAD_CORE_ARTIFACTS_H_
