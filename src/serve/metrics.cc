#include "src/serve/metrics.h"

#include <algorithm>

#include "src/graph/traversal_workspace.h"
#include "src/util/json.h"

namespace grgad {
namespace {

/// Log-spaced latency bucket upper bounds (milliseconds); a final +inf
/// bucket catches the tail.
constexpr double kLatencyUppersMs[] = {1,   2,    5,    10,   25,   50,  100,
                                       250, 500,  1000, 2500, 5000, 10000};
constexpr size_t kNumLatencyUppers =
    sizeof(kLatencyUppersMs) / sizeof(kLatencyUppersMs[0]);

}  // namespace

ServeMetrics::ServeMetrics(size_t queue_capacity, size_t timeline_capacity)
    : queue_capacity_(queue_capacity),
      timeline_capacity_(timeline_capacity),
      latency_buckets_(kNumLatencyUppers + 1, 0) {}

void ServeMetrics::RecordAdmit(size_t queue_depth_after) {
  std::lock_guard<std::mutex> lock(mu_);
  ++admitted_;
  peak_depth_ = std::max(peak_depth_, queue_depth_after);
}

void ServeMetrics::RecordReject() {
  std::lock_guard<std::mutex> lock(mu_);
  ++rejected_;
}

void ServeMetrics::RecordBatch(size_t batch_size, size_t depth_at_drain,
                               double seconds) {
  std::lock_guard<std::mutex> lock(mu_);
  BatchSample sample{batches_, batch_size, depth_at_drain, seconds};
  ++batches_;
  max_batch_size_ = std::max(max_batch_size_, batch_size);
  batched_requests_ += batch_size;
  batch_exec_seconds_ += seconds;
  if (timeline_capacity_ == 0) return;
  if (timeline_.size() < timeline_capacity_) {
    timeline_.push_back(sample);
  } else {
    timeline_[timeline_next_] = sample;
  }
  timeline_next_ = (timeline_next_ + 1) % timeline_capacity_;
}

void ServeMetrics::RecordRequest(const std::string& op, const Status& status,
                                 double latency_seconds,
                                 const std::vector<StageTiming>& timings) {
  std::lock_guard<std::mutex> lock(mu_);
  ++requests_;
  OpStats& op_stats = by_op_[op];
  ++op_stats.count;
  if (!status.ok()) {
    ++request_errors_;
    ++op_stats.errors;
  }
  for (const StageTiming& t : timings) {
    StageStats& stage = by_stage_[t.stage];
    ++stage.count;
    stage.seconds += t.seconds;
  }
  const double ms = latency_seconds * 1000.0;
  size_t bucket = 0;
  while (bucket < kNumLatencyUppers && ms > kLatencyUppersMs[bucket]) {
    ++bucket;
  }
  ++latency_buckets_[bucket];
  max_latency_ms_ = std::max(max_latency_ms_, ms);
  total_latency_ms_ += ms;
  op_stats.total_ms += ms;
}

void ServeMetrics::RecordMutation(bool applied, int fanout) {
  std::lock_guard<std::mutex> lock(mu_);
  ++mutations_;
  if (applied) ++mutations_applied_;
  fanout_total_ += static_cast<uint64_t>(fanout);
  fanout_max_ = std::max(fanout_max_, static_cast<uint64_t>(fanout));
}

void ServeMetrics::RecordRefresh(size_t dirty, size_t reused) {
  std::lock_guard<std::mutex> lock(mu_);
  ++refreshes_;
  refreshed_anchors_ += dirty;
  reused_anchors_ += reused;
}

void ServeMetrics::RecordArtifactGeneration(uint64_t generation) {
  std::lock_guard<std::mutex> lock(mu_);
  artifact_generation_ = generation;
}

void ServeMetrics::RecordScoreLookup(bool hit) {
  std::lock_guard<std::mutex> lock(mu_);
  ++(hit ? score_hits_ : score_misses_);
}

void ServeMetrics::SetDurabilityEnabled(bool enabled) {
  std::lock_guard<std::mutex> lock(mu_);
  durability_enabled_ = enabled;
}

void ServeMetrics::RecordWalAppend(size_t bytes, bool fsynced) {
  std::lock_guard<std::mutex> lock(mu_);
  ++wal_appends_;
  wal_bytes_ += bytes;
  if (fsynced) ++fsyncs_;
}

void ServeMetrics::RecordWalSync() {
  std::lock_guard<std::mutex> lock(mu_);
  ++fsyncs_;
}

void ServeMetrics::RecordSnapshot(uint64_t wal_seq) {
  std::lock_guard<std::mutex> lock(mu_);
  ++snapshots_;
  wal_seq_ = wal_seq;
}

void ServeMetrics::RecordRecovery(size_t replayed, size_t truncated,
                                  const std::string& note) {
  std::lock_guard<std::mutex> lock(mu_);
  replayed_records_ += replayed;
  truncated_tail_records_ += truncated;
  if (!note.empty()) last_durability_error_ = note;
}

void ServeMetrics::RecordDurabilityError(const Status& status) {
  std::lock_guard<std::mutex> lock(mu_);
  ++durability_errors_;
  last_durability_error_ = status.ToString();
}

void ServeMetrics::RecordBoot(double dataset_ms, double load_ms,
                              double replay_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  boot_dataset_ms_ = dataset_ms;
  boot_load_ms_ = load_ms;
  boot_replay_ms_ = replay_ms;
}

std::string ServeMetrics::SnapshotJson(size_t queue_depth,
                                       const MatrixArena* arena) const {
  std::lock_guard<std::mutex> lock(mu_);
  JsonWriter json;
  json.Object().Key("schema").Str("grgad-serve-metrics-v3");

  json.Key("queue").Object()
      .Key("capacity").Int(queue_capacity_)
      .Key("depth").Int(queue_depth)
      .Key("peak_depth").Int(peak_depth_)
      .Key("admitted").Int(admitted_)
      .Key("rejected").Int(rejected_)
      .End();

  json.Key("requests").Object()
      .Key("total").Int(requests_)
      .Key("errors").Int(request_errors_)
      .Key("by_op").Object();
  for (const auto& [op, stats] : by_op_) {
    json.Key(op).Object()
        .Key("count").Int(stats.count)
        .Key("errors").Int(stats.errors)
        .Key("total_ms").Num(stats.total_ms)
        .End();
  }
  json.End().End();

  const double mean_batch =
      batches_ > 0
          ? static_cast<double>(batched_requests_) / static_cast<double>(batches_)
          : 0.0;
  json.Key("batches").Object()
      .Key("count").Int(batches_)
      .Key("max_size").Int(max_batch_size_)
      .Key("mean_size").Num(mean_batch)
      .Key("exec_seconds").Num(batch_exec_seconds_)
      .End();

  json.Key("latency_ms").Object().Key("buckets").Array();
  for (size_t i = 0; i < latency_buckets_.size(); ++i) {
    json.Object().Key("le");
    if (i < kNumLatencyUppers) {
      json.Num(kLatencyUppersMs[i]);
    } else {
      json.Raw("null");  // The +inf tail bucket.
    }
    json.Key("count").Int(latency_buckets_[i]).End();
  }
  json.End()
      .Key("max_ms").Num(max_latency_ms_)
      .Key("total_ms").Num(total_latency_ms_)
      .End();

  json.Key("stages").Object();
  for (const auto& [stage, stats] : by_stage_) {
    json.Key(stage).Object()
        .Key("count").Int(stats.count)
        .Key("seconds").Num(stats.seconds)
        .End();
  }
  json.End();

  json.Key("mutations").Object()
      .Key("total").Int(mutations_)
      .Key("applied").Int(mutations_applied_)
      .Key("fanout_total").Int(fanout_total_)
      .Key("fanout_max").Int(fanout_max_)
      .Key("refreshes").Int(refreshes_)
      .Key("refreshed_anchors").Int(refreshed_anchors_)
      .Key("reused_anchors").Int(reused_anchors_)
      .End();

  json.Key("scoring_cache").Object()
      .Key("generation").Int(artifact_generation_)
      .Key("hits").Int(score_hits_)
      .Key("misses").Int(score_misses_)
      .End();

  json.Key("durability").Object()
      .Key("enabled").Bool(durability_enabled_)
      .Key("wal_appends").Int(wal_appends_)
      .Key("wal_bytes").Int(wal_bytes_)
      .Key("fsyncs").Int(fsyncs_)
      .Key("snapshots").Int(snapshots_)
      .Key("wal_seq").Int(wal_seq_)
      .Key("replayed_records").Int(replayed_records_)
      .Key("truncated_tail_records").Int(truncated_tail_records_)
      .Key("errors").Int(durability_errors_)
      .Key("last_error").Str(last_durability_error_)
      .End();

  json.Key("boot").Object()
      .Key("dataset_ms").Num(boot_dataset_ms_)
      .Key("load_ms").Num(boot_load_ms_)
      .Key("replay_ms").Num(boot_replay_ms_)
      .End();

  json.Key("workspace").Object()
      .Key("total_heap_allocs").Int(TraversalWorkspace::TotalHeapAllocs())
      .End();

  json.Key("arena").Object();
  if (arena != nullptr) {
    const MatrixArena::Stats stats = arena->stats();
    json.Key("acquired").Int(stats.acquired)
        .Key("reused").Int(stats.reused)
        .Key("heap_allocs").Int(stats.heap_allocs)
        .Key("released").Int(stats.released)
        .Key("bytes_served").Int(stats.bytes_served)
        .Key("heap_bytes").Int(stats.heap_bytes);
  }
  json.End();

  // Chronological ring dump: oldest surviving batch first.
  json.Key("timeline").Array();
  const size_t n = timeline_.size();
  const size_t start = n < timeline_capacity_ ? 0 : timeline_next_;
  for (size_t i = 0; i < n; ++i) {
    const BatchSample& s = timeline_[(start + i) % n];
    json.Object()
        .Key("batch").Int(s.batch)
        .Key("size").Int(s.size)
        .Key("depth_at_drain").Int(s.depth_at_drain)
        .Key("seconds").Num(s.seconds)
        .End();
  }
  return json.End().End().Take();
}

}  // namespace grgad
