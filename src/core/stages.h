// The Engine layer: TP-GrGAD's pipeline decomposed into first-class stages.
//
// The paper's framework (Fig. 2) is explicitly staged:
//
//   graph --[anchors]--> anchor nodes --[sampling]--> candidate groups
//         --[embedding]--> group embeddings --[scoring]--> scored groups
//
// Each stage here is a standalone fallible function with typed inputs and
// outputs, so callers can run the whole pipeline (RunPipeline), drive the
// stages themselves, or start from any persisted intermediate artifact —
// e.g. RescoreArtifacts re-runs only the scoring stage over saved TPGCL
// embeddings to swap the outlier detector without re-training. Every stage
// takes an optional RunContext for cancellation, progress callbacks, and
// per-stage wall-time telemetry; bad inputs return a Status instead of
// aborting.
#ifndef GRGAD_CORE_STAGES_H_
#define GRGAD_CORE_STAGES_H_

#include <vector>

#include "src/core/artifacts.h"
#include "src/core/run_context.h"
#include "src/gae/mh_gae.h"
#include "src/gcl/tpgcl.h"
#include "src/od/detector.h"
#include "src/od/ensemble.h"
#include "src/sampling/group_sampler.h"
#include "src/util/status.h"

namespace grgad {

/// Full-pipeline configuration (defaults mirror §VII-A4).
struct TpGrGadOptions {
  MhGaeOptions mh_gae;
  GroupSamplerOptions sampler;
  TpgclOptions tpgcl;
  DetectorKind detector = DetectorKind::kEcod;
  /// When true, the embedding stage skips TPGCL and scores mean-pooled raw
  /// features instead (the "TP-GrGAD w/o TPGCL" ablation of Table V).
  bool disable_tpgcl = false;
  uint64_t seed = 42;
  /// Serving: traversal workspaces to pre-grow per pool before the first
  /// request (PrewarmPipelineState; OptionMap key
  /// "serve.prewarm_workspaces"). 0 = no prewarm; values below the
  /// parallelism degree are raised to it, since the candidate stage leases
  /// one workspace pair per worker anyway. Prewarming never changes
  /// results — it only moves workspace growth out of the serving path.
  int serve_prewarm_workspaces = 0;
  /// Serving durability: fsync the write-ahead log every N appended records
  /// (OptionMap key "serve.wal_sync_every"). 1 = every record is durable
  /// before its ack (the safest and default); larger values batch fsyncs
  /// and bound data loss to the last N-1 acked mutations on power loss —
  /// kill -9 of the daemon alone never loses acked records either way,
  /// since the kernel holds the written bytes.
  int serve_wal_sync_every = 1;
  /// Serving durability: write a full state snapshot (graph + artifacts +
  /// WAL high-water mark) every N applied mutations and truncate the
  /// replayed WAL prefix (OptionMap key "serve.snapshot_every_mutations").
  /// 0 = never snapshot automatically; the WAL alone still recovers the
  /// session (replay from the start-of-session state).
  int serve_snapshot_every_mutations = 0;

  /// Propagates `seed` into the training-stage seeds (mh_gae.base.seed,
  /// tpgcl.seed). The sampler and its subsampling draw keep their own
  /// sampler.seed field, as they always have. TpGrGad's constructor does
  /// this automatically when `seed` was changed and the stage seeds were
  /// not; keep calling this only to re-seed explicitly.
  void ReseedStages();
};

/// Stage 1 output: anchor localization (MH-GAE).
struct AnchorStageOutput {
  std::vector<int> anchors;           ///< Sorted node ids.
  std::vector<double> node_errors;    ///< Per-node reconstruction errors.
};

/// Stage 2 output: candidate group sampling (Alg. 1).
struct CandidateStageOutput {
  std::vector<std::vector<int>> groups;
};

/// Stage 3 output: group embeddings (TPGCL, or mean pooling w/o TPGCL).
struct EmbeddingStageOutput {
  Matrix embeddings;                  ///< m x embed (or m x attr_dim).
  std::vector<double> loss_history;   ///< Empty for the pooled ablation.
};

/// Stage 4 output: outlier scoring over group embeddings.
struct ScoringStageOutput {
  std::vector<double> scores;         ///< Aligned to the input groups.
  std::vector<ScoredGroup> scored_groups;
  /// Per-member outcomes when options.detector is the ensemble (empty
  /// otherwise). A failed member is dropped and the scores average over the
  /// survivors; all members failing is a stage error, not a zero score.
  std::vector<EnsembleMemberStatus> member_statuses;

  /// True when an ensemble member failed: the scores rank the survivors.
  bool degraded() const {
    for (const EnsembleMemberStatus& member : member_statuses) {
      if (!member.status.ok()) return true;
    }
    return false;
  }
};

/// Trains MH-GAE on `g` and selects anchor nodes. InvalidArgument when the
/// graph has fewer than two nodes or no attributes.
Result<AnchorStageOutput> RunAnchorStage(const Graph& g,
                                         const TpGrGadOptions& options,
                                         RunContext* ctx = nullptr);

/// Samples candidate groups from `anchors` (Alg. 1). An empty anchor set
/// yields an empty (but OK) candidate set. With ctx->profile set, the
/// sampler's phases are reported as "candidates/search" /
/// "candidates/components" / "candidates/select" sub-stage timings
/// alongside the top-level "sampling" entry.
Result<CandidateStageOutput> RunCandidateStage(
    const Graph& g, const std::vector<int>& anchors,
    const TpGrGadOptions& options, RunContext* ctx = nullptr);

/// Embeds the candidate groups with TPGCL (or mean pooling when
/// options.disable_tpgcl). FailedPrecondition with fewer than two groups —
/// there is nothing to contrast.
Result<EmbeddingStageOutput> RunEmbeddingStage(
    const Graph& g, const std::vector<std::vector<int>>& groups,
    const TpGrGadOptions& options, RunContext* ctx = nullptr);

/// Scores one embedding row per group with options.detector (seeded with
/// options.seed ^ 0x3, matching the full pipeline). Only needs embeddings —
/// this is the stage artifact reloads re-run to swap detectors. Neighbor-
/// based detectors score through one shared NeighborIndex built here; with
/// ctx->profile set, the index build and the detector proper are reported
/// as "scoring/neighbors" / "scoring/detect" sub-stage timings.
Result<ScoringStageOutput> RunScoringStage(
    const Matrix& embeddings, const std::vector<std::vector<int>>& groups,
    const TpGrGadOptions& options, RunContext* ctx = nullptr);

/// Thin driver over the four stages. Fills `out` with every artifact
/// produced before the first failure, so callers keep partial progress on
/// non-OK returns (e.g. the sampled-but-unscorable candidate list when
/// fewer than two candidates exist).
Status RunPipelineInto(const Graph& g, const TpGrGadOptions& options,
                       RunContext* ctx, PipelineArtifacts* out);

/// RunPipelineInto without the partial-progress escape hatch: status or the
/// complete artifact set.
Result<PipelineArtifacts> RunPipeline(const Graph& g,
                                      const TpGrGadOptions& options,
                                      RunContext* ctx = nullptr);

/// Pre-grows the candidate stage's shared traversal-workspace pools (the
/// BFS pool and the sampler's weighted pool) for `g`-sized traversals, so
/// a resident process reaches steady-state zero-workspace-alloc before its
/// first request (TraversalWorkspace::TotalHeapAllocs stops growing). No-op
/// when options.serve_prewarm_workspaces == 0. Call with no leases
/// outstanding — i.e. before serving, not mid-run.
void PrewarmPipelineState(const Graph& g, const TpGrGadOptions& options);

/// Re-runs only the scoring stage over saved artifacts with a (possibly
/// different) detector — the "ECOD -> ensemble without re-training TPGCL"
/// path. `seed` should be the original pipeline seed for bit-identical
/// parity with a full run. FailedPrecondition when the artifacts carry no
/// embeddings.
Result<ScoringStageOutput> RescoreArtifacts(const PipelineArtifacts& artifacts,
                                            DetectorKind detector,
                                            uint64_t seed,
                                            RunContext* ctx = nullptr);

}  // namespace grgad

#endif  // GRGAD_CORE_STAGES_H_
