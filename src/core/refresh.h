// Incremental artifact refresh: the O(dirty region) serving path.
//
// A resident daemon's artifacts go stale the moment its graph mutates; the
// pre-dynamic answer was a full retrain+rescore per mutation. RefreshArtifacts
// instead re-runs the candidate fan-out for ONLY the dirty anchors
// (AnchorDirtyTracker's ball invalidation), reuses every clean anchor's
// cached pre-dedup candidate list, and replays the deterministic
// ascending-anchor merge + pooled embedding + scoring over the result.
//
// The golden contract (tests/refresh_test.cc): the merged artifacts are
// bitwise identical — groups, embeddings, scores — to running the candidate
// stage + pooled embedding + scoring from scratch on the mutated graph with
// the same anchors, at any GRGAD_THREADS. That holds because
// ResampleAnchors(dirty) + cached lists reproduces exactly what
// ResampleAnchors(all) would produce (per-anchor outputs are independent),
// and FinalizeCandidates is a pure function of the per-anchor lists.
//
// Embeddings are always the pooled mean-attribute kind (the disable_tpgcl
// ablation path): TPGCL training contrasts globally across all groups, so
// it cannot be made O(dirty) — forcing the pooled path is what turns a
// mutation from a retrain into a ball-sized resample. Scoring still runs
// the configured detector, seeded exactly as a full pipeline run would be.
#ifndef GRGAD_CORE_REFRESH_H_
#define GRGAD_CORE_REFRESH_H_

#include <vector>

#include "src/core/artifacts.h"
#include "src/core/run_context.h"
#include "src/core/stages.h"
#include "src/graph/graph.h"
#include "src/util/status.h"

namespace grgad {

/// The refresh path's resident cache: one pre-dedup candidate list per
/// anchor, exactly what GroupSampler::ResampleAnchors fills. Unprimed state
/// forces the first refresh to resample every anchor.
struct RefreshState {
  bool primed = false;
  std::vector<std::vector<std::vector<int>>> per_anchor;
};

/// What one refresh did (for ServeMetrics and logs).
struct RefreshStats {
  size_t dirty_anchors = 0;   ///< Anchors re-sampled this refresh.
  size_t reused_anchors = 0;  ///< Anchors served from the cache.
  size_t num_groups = 0;      ///< Candidate groups after the merge.
  bool full = false;          ///< True when unprimed forced a full resample.
  /// True when an ensemble member failed while scoring: the resident
  /// scores are the degraded survivors' ranking.
  bool scores_degraded = false;
};

/// Re-samples `dirty_indices` (indices into artifacts->anchors), merges with
/// the cached lists in `state`, and replaces the candidate/embedding/score
/// artifacts in place (anchors, GAE node errors, and provenance fields are
/// preserved). On any non-OK return the state is marked unprimed so the next
/// refresh falls back to a full resample instead of trusting a torn cache.
Status RefreshArtifacts(const Graph& g, const TpGrGadOptions& options,
                        const std::vector<int>& dirty_indices,
                        RefreshState* state, PipelineArtifacts* artifacts,
                        RunContext* ctx = nullptr,
                        RefreshStats* stats = nullptr);

}  // namespace grgad

#endif  // GRGAD_CORE_REFRESH_H_
