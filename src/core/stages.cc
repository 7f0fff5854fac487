#include "src/core/stages.h"

#include <utility>

#include "src/od/neighbor_index.h"
#include "src/util/fault.h"
#include "src/util/logging.h"

namespace grgad {
namespace {

/// True when the run's stop token has fired (cancel, deadline, or budget).
bool Stopped(const RunContext* ctx) {
  return ctx != nullptr && ctx->cancelled();
}

/// Injected stage-boundary fault (no-op unless GRGAD_FAULTS / --inject).
Status StageFault(const char* point) {
  return FaultInjector::Global().Check(point, StatusCode::kInternal);
}

}  // namespace

void TpGrGadOptions::ReseedStages() {
  mh_gae.base.seed = seed ^ 0x1;
  tpgcl.seed = seed ^ 0x2;
}

Result<AnchorStageOutput> RunAnchorStage(const Graph& g,
                                         const TpGrGadOptions& options,
                                         RunContext* ctx) {
  if (!g.has_attributes()) {
    return Status::InvalidArgument("anchor stage: graph has no attributes");
  }
  if (g.num_nodes() < 2) {
    return Status::InvalidArgument("anchor stage: graph needs >= 2 nodes");
  }
  if (g.num_edges() == 0) {
    // GAE training needs structure pairs to reconstruct.
    return Status::InvalidArgument("anchor stage: graph has no edges");
  }
  if (Stopped(ctx)) return StopStatus(ctx, "anchor stage");
  if (Status fault = StageFault("stage/anchors"); !fault.ok()) return fault;
  StageScope scope(ctx, "anchors");
  MhGaeOptions mh_options = options.mh_gae;
  if (ctx != nullptr) mh_options.base.cancel = ctx->cancel_token();
  MhGae mh_gae(mh_options);
  MhGaeResult gae = mh_gae.FitAnchors(g);
  if (Stopped(ctx)) return StopStatus(ctx, "anchor stage");
  AnchorStageOutput out;
  out.anchors = std::move(gae.anchors);
  out.node_errors = std::move(gae.gae.node_errors);
  GRGAD_LOG(kDebug) << "pipeline: " << out.anchors.size()
                    << " anchors selected";
  return out;
}

Result<CandidateStageOutput> RunCandidateStage(const Graph& g,
                                               const std::vector<int>& anchors,
                                               const TpGrGadOptions& options,
                                               RunContext* ctx) {
  if (Stopped(ctx)) return StopStatus(ctx, "sampling stage");
  if (Status fault = StageFault("stage/sampling"); !fault.ok()) return fault;
  StageScope scope(ctx, "sampling");
  GroupSamplerOptions sampler_options = options.sampler;
  if (ctx != nullptr) sampler_options.cancel = ctx->cancel_token();
  GroupSampler sampler(sampler_options);
  CandidateStageOutput out;
  // With profile telemetry on, the sampler clocks its three phases and they
  // land alongside the top-level "sampling" timing (scoring-style
  // sub-stages: candidates/search, candidates/components,
  // candidates/select).
  const bool profile = ctx != nullptr && ctx->profile;
  SampleTelemetry telemetry;
  out.groups = sampler.Sample(g, anchors, profile ? &telemetry : nullptr);
  if (profile) {
    ctx->RecordSubStage("candidates/search", telemetry.search_seconds);
    ctx->RecordSubStage("candidates/components", telemetry.components_seconds);
    ctx->RecordSubStage("candidates/select", telemetry.select_seconds);
  }
  if (Stopped(ctx)) return StopStatus(ctx, "sampling stage");
  GRGAD_LOG(kDebug) << "pipeline: " << out.groups.size()
                    << " candidate groups";
  return out;
}

Result<EmbeddingStageOutput> RunEmbeddingStage(
    const Graph& g, const std::vector<std::vector<int>>& groups,
    const TpGrGadOptions& options, RunContext* ctx) {
  if (groups.size() < 2) {
    return Status::FailedPrecondition(
        "embedding stage: need >= 2 candidate groups to contrast, got " +
        std::to_string(groups.size()));
  }
  if (!g.has_attributes()) {
    return Status::InvalidArgument("embedding stage: graph has no attributes");
  }
  if (Stopped(ctx)) return StopStatus(ctx, "embedding stage");
  if (Status fault = StageFault("stage/embedding"); !fault.ok()) return fault;
  StageScope scope(ctx, "embedding");
  EmbeddingStageOutput out;
  if (options.disable_tpgcl) {
    // Table V ablation: mean-pooled raw attributes per group.
    const int m = static_cast<int>(groups.size());
    Matrix pooled(m, g.attr_dim());
    for (int i = 0; i < m; ++i) {
      const auto& group = groups[i];
      for (int v : group) {
        const double* row = g.attributes().RowPtr(v);
        for (size_t j = 0; j < g.attr_dim(); ++j) pooled(i, j) += row[j];
      }
      for (size_t j = 0; j < g.attr_dim(); ++j) {
        pooled(i, j) /= static_cast<double>(group.size());
      }
    }
    out.embeddings = std::move(pooled);
  } else {
    TpgclOptions tpgcl_options = options.tpgcl;
    if (ctx != nullptr) tpgcl_options.cancel = ctx->cancel_token();
    Tpgcl tpgcl(tpgcl_options);
    TpgclResult result = tpgcl.FitEmbed(g, groups);
    if (Stopped(ctx)) return StopStatus(ctx, "embedding stage");
    out.embeddings = std::move(result.embeddings);
    out.loss_history = std::move(result.loss_history);
  }
  return out;
}

Result<ScoringStageOutput> RunScoringStage(
    const Matrix& embeddings, const std::vector<std::vector<int>>& groups,
    const TpGrGadOptions& options, RunContext* ctx) {
  if (embeddings.rows() != groups.size()) {
    return Status::InvalidArgument(
        "scoring stage: " + std::to_string(embeddings.rows()) +
        " embedding rows vs " + std::to_string(groups.size()) + " groups");
  }
  if (embeddings.rows() == 0) {
    return Status::FailedPrecondition("scoring stage: nothing to score");
  }
  if (Stopped(ctx)) return StopStatus(ctx, "scoring stage");
  if (Status fault = StageFault("stage/scoring"); !fault.ok()) return fault;
  StageScope scope(ctx, "scoring");
  auto detector = MakeOutlierDetector(options.detector, options.seed ^ 0x3);
  if (detector == nullptr) {
    return Status::Internal("scoring stage: unknown detector kind");
  }
  if (ctx != nullptr) detector->SetStopToken(ctx->cancel_token());
  ScoringStageOutput out;
  // Neighbor-based detectors (kNN / LOF / the ensemble) all consume the
  // same k-NN structure; build it once here and share it. Sub-stage scopes
  // only appear when the caller opted into profile telemetry.
  RunContext* profile_ctx =
      (ctx != nullptr && ctx->profile) ? ctx : nullptr;
  const int k = detector->NeighborsNeeded(static_cast<int>(embeddings.rows()));
  if (k > 0) {
    NeighborIndex index;
    {
      StageScope neighbors_scope(profile_ctx, "scoring/neighbors");
      index = BuildNeighborIndex(embeddings, k);
    }
    StageScope detect_scope(profile_ctx, "scoring/detect");
    out.scores = detector->FitScoreWithIndex(embeddings, index);
  } else {
    StageScope detect_scope(profile_ctx, "scoring/detect");
    out.scores = detector->FitScore(embeddings);
  }
  if (Stopped(ctx)) return StopStatus(ctx, "scoring stage");
  // Ensemble degradation surface: keep the per-member outcomes, and treat
  // a fully-failed ensemble as a stage error (the all-zero scores it
  // returns carry no ranking signal).
  if (auto* ensemble = dynamic_cast<EnsembleDetector*>(detector.get())) {
    out.member_statuses = ensemble->member_statuses();
    if (ensemble->survivors() == 0) {
      std::string detail;
      for (const auto& ms : out.member_statuses) {
        if (!detail.empty()) detail += "; ";
        detail += ms.name + ": " + ms.status.ToString();
      }
      return Status::Internal(
          "scoring stage: every ensemble member failed (" + detail + ")");
    }
    for (const auto& ms : out.member_statuses) {
      if (!ms.status.ok()) {
        GRGAD_LOG(kWarning) << "scoring: ensemble member " << ms.name
                            << " dropped: " << ms.status.ToString();
      }
    }
  }
  out.scored_groups.reserve(groups.size());
  for (size_t i = 0; i < groups.size(); ++i) {
    out.scored_groups.push_back({groups[i], out.scores[i]});
  }
  return out;
}

Status RunPipelineInto(const Graph& g, const TpGrGadOptions& options,
                       RunContext* ctx, PipelineArtifacts* out) {
  *out = PipelineArtifacts();
  out->seed = options.seed;

  auto anchors = RunAnchorStage(g, options, ctx);
  if (!anchors.ok()) return anchors.status();
  out->anchors = std::move(anchors.value().anchors);
  out->gae_node_errors = std::move(anchors.value().node_errors);
  if (out->anchors.empty()) {
    return Status::FailedPrecondition("pipeline: no anchor nodes selected");
  }

  auto candidates = RunCandidateStage(g, out->anchors, options, ctx);
  if (!candidates.ok()) return candidates.status();
  out->candidate_groups = std::move(candidates.value().groups);
  if (out->candidate_groups.size() < 2) {
    // Not enough candidates to contrast; keep them, unscored, so callers
    // (and the legacy Run()) still see what the sampler produced.
    for (const auto& group : out->candidate_groups) {
      out->scored_groups.push_back({group, 0.0});
    }
    return Status::FailedPrecondition(
        "pipeline: need >= 2 candidate groups to contrast, got " +
        std::to_string(out->candidate_groups.size()));
  }

  auto embedding = RunEmbeddingStage(g, out->candidate_groups, options, ctx);
  if (!embedding.ok()) return embedding.status();
  out->group_embeddings = std::move(embedding.value().embeddings);
  out->tpgcl_loss_history = std::move(embedding.value().loss_history);

  auto scoring =
      RunScoringStage(out->group_embeddings, out->candidate_groups, options,
                      ctx);
  if (!scoring.ok()) return scoring.status();
  out->group_scores = std::move(scoring.value().scores);
  out->scored_groups = std::move(scoring.value().scored_groups);
  return Status::Ok();
}

Result<PipelineArtifacts> RunPipeline(const Graph& g,
                                      const TpGrGadOptions& options,
                                      RunContext* ctx) {
  PipelineArtifacts artifacts;
  const Status status = RunPipelineInto(g, options, ctx, &artifacts);
  if (!status.ok()) return status;
  return artifacts;
}

void PrewarmPipelineState(const Graph& g, const TpGrGadOptions& options) {
  if (options.serve_prewarm_workspaces <= 0) return;
  GroupSampler::PrewarmWorkspaces(g, options.sampler,
                                  options.serve_prewarm_workspaces);
}

Result<ScoringStageOutput> RescoreArtifacts(const PipelineArtifacts& artifacts,
                                            DetectorKind detector,
                                            uint64_t seed, RunContext* ctx) {
  if (artifacts.group_embeddings.rows() == 0) {
    return Status::FailedPrecondition(
        "rescore: artifacts carry no group embeddings (was the run saved "
        "after the embedding stage?)");
  }
  TpGrGadOptions options;
  options.detector = detector;
  options.seed = seed;
  return RunScoringStage(artifacts.group_embeddings,
                         artifacts.candidate_groups, options, ctx);
}

}  // namespace grgad
