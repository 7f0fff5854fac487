// Live serving telemetry: counters, histograms, and a bounded timeline.
//
// ServeMetrics is the daemon's always-on collector — every admission,
// rejection, batch, and completed request records into mutex-guarded
// aggregates, cheap enough to leave enabled (a few counter bumps per
// request; the pipeline's own telemetry arrives for free via RunContext
// stage timings). A `stats` request — or the --metrics-out dump at
// shutdown — renders SnapshotJson(): one self-describing JSON object
// ("grgad-serve-metrics-v3", schema documented in PERF.md) with queue
// gauges, per-op request counts + latency aggregates, batch-size stats, a
// log-spaced request latency histogram, per-(sub-)stage wall-time
// aggregates, mutation/invalidation-fanout/refresh counters, rescore
// score-cache counters (artifact generation, hits, misses), durability
// counters (WAL appends/bytes/fsyncs, snapshots, recovery replay and
// truncation totals), the start-up wall times (dataset, load, replay), the
// shared workspace/arena allocation counters, and a most-recent-batches
// timeline ring (collector + timeline, not an unbounded log).
#ifndef GRGAD_SERVE_METRICS_H_
#define GRGAD_SERVE_METRICS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/run_context.h"
#include "src/tensor/arena.h"
#include "src/util/status.h"

namespace grgad {

class ServeMetrics {
 public:
  /// `timeline_capacity` bounds the per-batch timeline ring; older batches
  /// fall off (their contribution stays in the aggregates).
  explicit ServeMetrics(size_t queue_capacity, size_t timeline_capacity = 256);

  /// One request entered the queue; `queue_depth_after` feeds the depth
  /// peak gauge.
  void RecordAdmit(size_t queue_depth_after);

  /// One request was turned away at admission (full queue or injected
  /// fault) with an error response.
  void RecordReject();

  /// One batch finished: `batch_size` requests executed in `seconds`,
  /// drained when the queue held `depth_at_drain` (== batch_size unless
  /// requests kept arriving mid-drain).
  void RecordBatch(size_t batch_size, size_t depth_at_drain, double seconds);

  /// One request completed (ok or error) after `latency_seconds` from
  /// admission; `timings` carries the request's RunContext stage/sub-stage
  /// brackets, folded into the per-stage aggregates. Latency also folds
  /// into the per-op mean (the "per-op latency" counter of the mutation
  /// fast path).
  void RecordRequest(const std::string& op, const Status& status,
                     double latency_seconds,
                     const std::vector<StageTiming>& timings);

  /// One graph mutation executed: `applied` false for structural no-ops;
  /// `fanout` is the invalidation fanout (anchors inside the mutation's
  /// ball, or all anchors under the weighted-mode MarkAll fallback).
  void RecordMutation(bool applied, int fanout);

  /// One incremental refresh completed: `dirty` anchors re-sampled,
  /// `reused` served from the cache.
  void RecordRefresh(size_t dirty, size_t reused);

  /// The resident artifacts entered generation `generation` (a refresh
  /// ran, live or replayed); the score cache starts empty.
  void RecordArtifactGeneration(uint64_t generation);

  /// One rescore consulted the (detector, seed) score cache: `hit` true
  /// when it rendered from a cached result instead of refitting.
  void RecordScoreLookup(bool hit);

  // Durability (the "durability" snapshot section, schema v3):

  /// Flips the section's "enabled" flag (EnableDurability succeeded).
  void SetDurabilityEnabled(bool enabled);

  /// One WAL record appended (`bytes` on the wire); `fsynced` true when
  /// this append triggered the batched fsync.
  void RecordWalAppend(size_t bytes, bool fsynced);

  /// One explicit Sync() fsync (the `sync` op / graceful drain).
  void RecordWalSync();

  /// One snapshot committed at WAL high-water mark `wal_seq`.
  void RecordSnapshot(uint64_t wal_seq);

  /// Recovery finished: `replayed` WAL records re-applied, `truncated`
  /// torn/corrupt tail records dropped, with the typed DataLoss note ("" =
  /// clean tail).
  void RecordRecovery(size_t replayed, size_t truncated,
                      const std::string& note);

  /// A durable operation failed (WAL append, snapshot, sync); the daemon
  /// degraded but kept serving.
  void RecordDurabilityError(const Status& status);

  /// How the daemon's start spent its time (the "boot" snapshot section):
  /// dataset generation (0 when a snapshot supplied the graph), the
  /// snapshot or --in artifact load, and the WAL open + replay.
  void RecordBoot(double dataset_ms, double load_ms, double replay_ms);

  /// The live snapshot. `queue_depth` is sampled by the caller (the queue
  /// owns it); `arena` contributes the shared warm-buffer stats (nullptr
  /// omits the section's counters but keeps the key).
  std::string SnapshotJson(size_t queue_depth, const MatrixArena* arena) const;

 private:
  struct OpStats {
    uint64_t count = 0;
    uint64_t errors = 0;
    double total_ms = 0.0;  ///< Per-op latency aggregate (mean = total/count).
  };
  struct StageStats {
    uint64_t count = 0;
    double seconds = 0.0;
  };
  struct BatchSample {
    uint64_t batch = 0;
    size_t size = 0;
    size_t depth_at_drain = 0;
    double seconds = 0.0;
  };

  const size_t queue_capacity_;
  const size_t timeline_capacity_;

  mutable std::mutex mu_;
  uint64_t admitted_ = 0;
  uint64_t rejected_ = 0;
  size_t peak_depth_ = 0;
  uint64_t batches_ = 0;
  size_t max_batch_size_ = 0;
  uint64_t batched_requests_ = 0;
  double batch_exec_seconds_ = 0.0;
  uint64_t requests_ = 0;
  uint64_t request_errors_ = 0;
  std::map<std::string, OpStats> by_op_;
  std::map<std::string, StageStats> by_stage_;
  std::vector<uint64_t> latency_buckets_;  ///< One per kLatencyUppersMs + inf.
  double max_latency_ms_ = 0.0;
  double total_latency_ms_ = 0.0;
  std::vector<BatchSample> timeline_;  ///< Ring, chronological modulo wrap.
  size_t timeline_next_ = 0;
  // Mutation fast path (the "mutations" snapshot section):
  uint64_t mutations_ = 0;
  uint64_t mutations_applied_ = 0;
  uint64_t fanout_total_ = 0;
  uint64_t fanout_max_ = 0;
  uint64_t refreshes_ = 0;
  uint64_t refreshed_anchors_ = 0;
  uint64_t reused_anchors_ = 0;
  // Rescore score cache (the "scoring_cache" snapshot section):
  uint64_t artifact_generation_ = 0;
  uint64_t score_hits_ = 0;
  uint64_t score_misses_ = 0;
  // Durability (the "durability" snapshot section):
  bool durability_enabled_ = false;
  uint64_t wal_appends_ = 0;
  uint64_t wal_bytes_ = 0;
  uint64_t fsyncs_ = 0;
  uint64_t snapshots_ = 0;
  uint64_t wal_seq_ = 0;  ///< High-water mark of the last snapshot.
  uint64_t replayed_records_ = 0;
  uint64_t truncated_tail_records_ = 0;
  uint64_t durability_errors_ = 0;
  std::string last_durability_error_;  ///< "" until the first error/note.
  // Start-up wall times (the "boot" snapshot section):
  double boot_dataset_ms_ = 0.0;
  double boot_load_ms_ = 0.0;
  double boot_replay_ms_ = 0.0;
};

}  // namespace grgad

#endif  // GRGAD_SERVE_METRICS_H_
