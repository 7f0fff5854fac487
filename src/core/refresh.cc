#include "src/core/refresh.h"

#include <numeric>
#include <utility>

#include "src/util/fault.h"
#include "src/util/logging.h"

namespace grgad {
namespace {

bool Stopped(const RunContext* ctx) {
  return ctx != nullptr && ctx->cancelled();
}

}  // namespace

Status RefreshArtifacts(const Graph& g, const TpGrGadOptions& options,
                        const std::vector<int>& dirty_indices,
                        RefreshState* state, PipelineArtifacts* artifacts,
                        RunContext* ctx, RefreshStats* stats) {
  if (Stopped(ctx)) return StopStatus(ctx, "refresh");
  if (Status fault = FaultInjector::Global().Check("stage/refresh",
                                                   StatusCode::kInternal);
      !fault.ok()) {
    state->primed = false;
    return fault;
  }
  StageScope scope(ctx, "refresh");
  const std::vector<int>& anchors = artifacts->anchors;

  // Unprimed (first refresh, or recovering from an aborted one): every
  // anchor is dirty regardless of what the tracker reported.
  std::vector<int> all;
  const bool full = !state->primed;
  if (full) {
    all.resize(anchors.size());
    std::iota(all.begin(), all.end(), 0);
  }
  const std::vector<int>& dirty = full ? all : dirty_indices;

  GroupSamplerOptions sampler_options = options.sampler;
  if (ctx != nullptr) sampler_options.cancel = ctx->cancel_token();
  GroupSampler sampler(sampler_options);
  sampler.ResampleAnchors(g, anchors, dirty, &state->per_anchor);
  if (Stopped(ctx)) {
    // The cache may hold a partial fan-out; do not trust it next time.
    state->primed = false;
    return StopStatus(ctx, "refresh");
  }
  std::vector<std::vector<int>> groups =
      sampler.FinalizeCandidates(g, anchors, state->per_anchor);

  // Pooled embedding (see the header: TPGCL is global, refresh is local) +
  // the configured detector, seeded exactly like a full pipeline run.
  TpGrGadOptions pooled_options = options;
  pooled_options.disable_tpgcl = true;
  auto embedded = RunEmbeddingStage(g, groups, pooled_options, ctx);
  if (!embedded.ok()) {
    state->primed = false;
    return embedded.status();
  }
  auto scored = RunScoringStage(embedded.value().embeddings, groups,
                                pooled_options, ctx);
  if (!scored.ok()) {
    state->primed = false;
    return scored.status();
  }

  artifacts->candidate_groups = std::move(groups);
  artifacts->group_embeddings = std::move(embedded.value().embeddings);
  artifacts->group_scores = std::move(scored.value().scores);
  artifacts->scored_groups = std::move(scored.value().scored_groups);
  state->primed = true;

  if (stats != nullptr) {
    stats->dirty_anchors = dirty.size();
    stats->reused_anchors = anchors.size() - dirty.size();
    stats->num_groups = artifacts->candidate_groups.size();
    stats->full = full;
    stats->scores_degraded = scored.value().degraded();
  }
  GRGAD_LOG(kDebug) << "refresh: " << dirty.size() << "/" << anchors.size()
                    << " anchors resampled, "
                    << artifacts->candidate_groups.size() << " groups";
  return Status::Ok();
}

}  // namespace grgad
