#include "src/serve/server.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <thread>
#include <utility>

#include "src/core/method_registry.h"
#include "src/od/detector.h"
#include "src/util/fault.h"
#include "src/util/logging.h"

namespace grgad {
namespace {

/// Best-effort request id from a line whose full validation failed, so the
/// error response still correlates (-1 when even that much is unreadable).
int64_t SalvageRequestId(const std::string& line) {
  auto parsed = ParseJsonText(line);
  if (!parsed.ok()) return -1;
  const JsonValue* id = parsed.value().Find("id");
  int64_t value = -1;
  if (id == nullptr || !JsonInt64(*id, 0, INT64_MAX, &value)) return -1;
  return value;
}

bool BlankLine(const std::string& line) {
  return line.find_first_not_of(" \t\r") == std::string::npos;
}

}  // namespace

ServeDaemon::ServeDaemon(const Graph& graph, PipelineArtifacts artifacts,
                         ServeOptions options)
    : graph_(&graph),
      artifacts_(std::move(artifacts)),
      options_(std::move(options)),
      dynamic_(graph),
      metrics_(options_.max_queue) {
  tracker_.Reset(artifacts_.anchors,
                 InvalidationRadius(options_.pipeline.sampler),
                 graph.num_nodes());
}

void ServeDaemon::Prewarm() {
  PrewarmPipelineState(*graph_, options_.pipeline);
}

int ServeDaemon::MarkAllAnchors() {
  tracker_.MarkAll();
  return static_cast<int>(tracker_.num_anchors());
}

bool ServeDaemon::ApplyEdgeMutation(bool add, int u, int v, int* fanout) {
  *fanout = 0;
  const bool sound = IncrementalInvalidationSound(options_.pipeline.sampler);
  if (add) {
    // Mark AFTER the splice: the post-add balls cover every distance that
    // shrank through the new edge.
    const bool applied = dynamic_.AddEdge(u, v);
    if (applied) {
      *fanout = sound ? tracker_.MarkFromEdge(dynamic_.PackedView(), u, v)
                      : MarkAllAnchors();
    }
    return applied;
  }
  if (!dynamic_.HasEdge(u, v)) return false;
  // Mark BEFORE the splice: the pre-remove balls still reach through the
  // edge about to disappear.
  *fanout = sound ? tracker_.MarkFromEdge(dynamic_.PackedView(), u, v)
                  : MarkAllAnchors();
  return dynamic_.RemoveEdge(u, v);
}

Status ServeDaemon::ReplayWalRecord(const WalRecord& record) {
  switch (record.kind) {
    case WalRecord::Kind::kMutation: {
      const GraphMutation& m = record.mutation;
      int fanout = 0;
      ApplyEdgeMutation(m.kind == GraphMutation::Kind::kAddEdge, m.u, m.v,
                        &fanout);
      return Status::Ok();
    }
    case WalRecord::Kind::kRefresh: {
      RefreshStats stats;
      return RefreshResident(/*ctx=*/nullptr, &stats);
    }
    case WalRecord::Kind::kCompact: {
      dynamic_.Compact();
      return Status::Ok();
    }
  }
  return Status::Internal("wal replay: unreachable record kind");
}

Status ServeDaemon::RefreshResident(RunContext* ctx, RefreshStats* stats) {
  const std::vector<int> dirty = tracker_.TakeDirtyIndices();
  // Every refresh call starts a new generation, whatever its outcome:
  // nothing scored over the previous artifacts is served again.
  ++generation_;
  score_cache_.clear();
  metrics_.RecordArtifactGeneration(generation_);
  Status status = RefreshArtifacts(dynamic_.PackedView(), options_.pipeline,
                                   dirty, &refresh_state_, &artifacts_, ctx,
                                   stats);
  if (!status.ok()) {
    // The dirty marks were consumed but the refresh never landed;
    // re-mark everything so the next refresh retries from scratch
    // (RefreshArtifacts already unprimed its cache).
    tracker_.MarkAll();
    return status;
  }
  // The refresh scored the new artifacts through RunScoringStage, which
  // reads only options.detector and options.seed
  // (MakeOutlierDetector(detector, seed ^ 0x3)). RescoreArtifacts passes
  // the same two over the same embeddings and groups, so the resident
  // scores are bit for bit a rescore's at this key, and the entry can be
  // artifacts_.scored_groups itself: seeding copies nothing.
  if (!stats->scores_degraded) {
    CachedScoring& entry = score_cache_[options_.pipeline.detector];
    entry.seed = options_.pipeline.seed;
    entry.resident = true;
  }
  return Status::Ok();
}

const std::vector<ScoredGroup>* ServeDaemon::CachedScores(
    DetectorKind kind, uint64_t seed) const {
  const auto it = score_cache_.find(kind);
  if (it == score_cache_.end() || it->second.seed != seed) return nullptr;
  return it->second.resident ? &artifacts_.scored_groups
                             : &it->second.scored_groups;
}

Status ServeDaemon::EnableDurability(LoadedServeSnapshot* snapshot) {
  if (options_.state_dir.empty()) {
    return Status::InvalidArgument(
        "EnableDurability requires ServeOptions::state_dir");
  }
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(options_.state_dir), ec);
  if (ec) {
    return Status::IoError("cannot create state dir " + options_.state_dir +
                           ": " + ec.message());
  }
  uint64_t base = 0;
  if (snapshot != nullptr) {
    // The caller already seeded the constructor with the snapshot's graph
    // and artifacts; what remains is the serving state around them.
    if (snapshot->state.all_dirty) {
      tracker_.MarkAll();
    } else {
      for (int index : snapshot->state.dirty_anchor_indices) {
        tracker_.MarkIndex(index);
      }
    }
    refresh_state_ = std::move(snapshot->state.refresh);
    dynamic_.RestoreCompactions(snapshot->state.compactions);
    base = snapshot->wal_seq;
  }
  auto wal = WriteAheadLog::Open(
      (std::filesystem::path(options_.state_dir) / "wal.log").string(),
      options_.pipeline.serve_wal_sync_every);
  if (!wal.ok()) return wal.status();
  wal_ = std::move(wal.value());
  // Replay the tail above the snapshot's high-water mark through the same
  // apply/mark/refresh path live traffic takes; records at or below it are
  // already folded into the snapshot (the crash-before-truncate window).
  size_t replayed = 0;
  for (const WalRecord& record : wal_->records()) {
    if (record.seq <= base) continue;
    GRGAD_RETURN_IF_ERROR(ReplayWalRecord(record));
    ++replayed;
  }
  if (wal_->last_seq() < base) {
    // The WAL lost records the snapshot already covers (torn tail below
    // the high-water mark): reset so appends continue above the snapshot.
    GRGAD_RETURN_IF_ERROR(wal_->ResetTo(base));
  }
  metrics_.RecordRecovery(replayed, wal_->open_stats().truncated_records,
                          wal_->open_stats().truncation_note);
  metrics_.SetDurabilityEnabled(true);
  if (replayed > 0 || wal_->open_stats().truncated_records > 0) {
    GRGAD_LOG(kInfo) << "serve: recovered " << replayed
                     << " WAL record(s) above snapshot seq " << base
                     << " (dropped "
                     << wal_->open_stats().truncated_records
                     << " torn tail record(s))";
  }
  return Status::Ok();
}

Status ServeDaemon::SnapshotNow() {
  if (wal_ == nullptr) {
    return Status::FailedPrecondition(
        "snapshot requires a daemon started with --state-dir");
  }
  ServeStateSnapshot state;
  state.all_dirty = tracker_.all_dirty();
  state.dirty_anchor_indices = tracker_.PeekDirtyIndices();
  state.compactions = dynamic_.stats().compactions;
  const uint64_t seq = wal_->last_seq();
  // Unsynced appends must be durable before a snapshot claims to cover
  // them: the snapshot commit is the new recovery floor.
  GRGAD_RETURN_IF_ERROR(wal_->Sync());
  // The refresh cache is lent to the snapshot rather than deep-copied
  // (every anchor's candidate lists), and taken back whatever the save
  // returns.
  state.refresh = std::move(refresh_state_);
  const Status saved = SaveServeSnapshot(options_.state_dir,
                                         dynamic_.PackedView(), artifacts_,
                                         state, seq);
  refresh_state_ = std::move(state.refresh);
  GRGAD_RETURN_IF_ERROR(saved);
  metrics_.RecordSnapshot(seq);
  // The kill window between a committed snapshot and the WAL truncation:
  // recovery must skip replaying records the snapshot already covers.
  (void)FaultInjector::Global().Fires("snapshot/post-pre-truncate");
  GRGAD_RETURN_IF_ERROR(wal_->ResetTo(seq));
  mutations_since_snapshot_ = 0;
  return Status::Ok();
}

void ServeDaemon::MaybeSnapshot() {
  if (wal_ == nullptr) return;
  const int cadence = options_.pipeline.serve_snapshot_every_mutations;
  if (cadence <= 0) return;
  ++mutations_since_snapshot_;
  if (mutations_since_snapshot_ < static_cast<uint64_t>(cadence)) return;
  // Reset the counter even on failure so a persistently failing snapshot
  // retries at the next cadence instead of after every mutation.
  mutations_since_snapshot_ = 0;
  if (Status status = SnapshotNow(); !status.ok()) {
    // Degradation, not failure: the WAL still covers the whole session.
    metrics_.RecordDurabilityError(status);
    GRGAD_LOG(kWarning) << "serve: snapshot failed (WAL still covers the "
                           "session): " << status.ToString();
  }
}

std::string ServeDaemon::MetricsJson() const {
  RequestQueue* queue = live_queue_.load(std::memory_order_acquire);
  return metrics_.SnapshotJson(queue != nullptr ? queue->depth() : 0, &arena_);
}

Status ServeDaemon::Serve(LineChannel* channel, const CancelToken& stop) {
  RequestQueue queue(options_.max_queue);
  live_queue_.store(&queue, std::memory_order_release);
  std::thread executor([&] { ExecuteLoop(&queue, channel); });

  Status transport = Status::Ok();
  std::string line;
  bool eof = false;
  while (!shutdown_requested()) {
    transport = channel->ReadLine(&line, &eof, &stop);
    if (!transport.ok() || eof) break;
    if (BlankLine(line)) continue;

    auto parsed = ParseServeRequest(line);
    if (!parsed.ok()) {
      metrics_.RecordReject();
      (void)channel->WriteLine(
          RenderErrorResponse(SalvageRequestId(line), "invalid",
                              parsed.status()));
      continue;
    }
    ServeRequest request = std::move(parsed).value();
    const int64_t id = request.id;
    const ServeOp op = request.op;

    if (Status fault = FaultInjector::Global().Check(
            "serve/admit", StatusCode::kResourceExhausted);
        !fault.ok()) {
      metrics_.RecordReject();
      (void)channel->WriteLine(RenderErrorResponse(id, op, fault));
      continue;
    }
    if (!queue.Admit(std::move(request))) {
      metrics_.RecordReject();
      (void)channel->WriteLine(RenderErrorResponse(
          id, op,
          Status::ResourceExhausted(
              "queue full (capacity " + std::to_string(queue.capacity()) +
              ")")));
      continue;
    }
    metrics_.RecordAdmit(queue.depth());
    // Shutdown stops reading immediately; everything already admitted —
    // including the shutdown request itself, which is what flips the flag
    // and emits the acknowledgement — still drains in order.
    if (op == ServeOp::kShutdown) break;
  }

  queue.Close();
  executor.join();
  live_queue_.store(nullptr, std::memory_order_release);
  return transport;
}

void ServeDaemon::ExecuteLoop(RequestQueue* queue, LineChannel* channel) {
  std::vector<PendingRequest> batch;
  while (queue->DrainBatch(&batch)) {
    Timer batch_timer;
    for (PendingRequest& pending : batch) {
      Status status;
      std::vector<StageTiming> timings;
      const std::string response = Execute(pending.request, &status, &timings);
      // A dead peer must not abort the drain: execution is side-effect-free
      // per request, so finishing the batch just discards undeliverable
      // responses.
      const Status written = channel->WriteLine(response);
      if (!written.ok()) {
        GRGAD_LOG(kWarning) << "serve: dropping response for request "
                            << pending.request.id << ": "
                            << written.ToString();
      }
      metrics_.RecordRequest(ServeOpName(pending.request.op), status,
                             pending.queued.ElapsedSeconds(), timings);
    }
    metrics_.RecordBatch(batch.size(), batch.size(),
                         batch_timer.ElapsedSeconds());
    batch.clear();
  }
}

std::string ServeDaemon::Execute(const ServeRequest& request,
                                 Status* status_out,
                                 std::vector<StageTiming>* timings_out) {
  Status status = Status::Ok();
  std::string response;
  RunContext ctx;
  // Sub-stage telemetry is free detail for the metrics timeline; it never
  // reaches responses, so turning it on cannot perturb response bytes.
  ctx.profile = true;
  const double timeout = request.timeout_seconds > 0.0
                             ? request.timeout_seconds
                             : options_.default_timeout_seconds;
  if (timeout > 0.0) ctx.SetDeadlineAfter(timeout);

  if (Status fault =
          FaultInjector::Global().Check("serve/execute", StatusCode::kInternal);
      !fault.ok()) {
    status = fault;
    response = RenderErrorResponse(request.id, request.op, fault);
  } else {
    switch (request.op) {
      case ServeOp::kAnchorScore: {
        TpGrGadOptions options = options_.pipeline;
        status = ApplyTpGrGadOverrides(&options, request.overrides);
        if (!status.ok()) {
          response = RenderErrorResponse(request.id, request.op, status);
          break;
        }
        // Resident warm state: recycle training buffers across requests.
        // Value-neutral by the arena contract (memory, never values), so
        // responses stay bitwise identical to an arena-less sequential run.
        options.mh_gae.base.arena = &arena_;
        options.tpgcl.arena = &arena_;
        // The live graph: every applied mutation is already spliced in.
        auto result = RunPipeline(dynamic_.PackedView(), options, &ctx);
        if (!result.ok()) {
          status = result.status();
          response = RenderErrorResponse(request.id, request.op, status);
          break;
        }
        response =
            RenderAnchorScoreResponse(request.id, result.value(), request.top);
        break;
      }
      case ServeOp::kRescore: {
        DetectorKind kind;
        if (!ParseDetectorKind(request.detector, &kind)) {
          status = Status::InvalidArgument("unknown detector '" +
                                           request.detector + "'");
          response = RenderErrorResponse(request.id, request.op, status);
          break;
        }
        const uint64_t seed =
            request.has_seed ? request.seed : artifacts_.seed;
        // A request whose deadline already passed takes the miss path,
        // where the scoring stage answers DeadlineExceeded.
        const std::vector<ScoredGroup>* cached =
            ctx.cancelled() ? nullptr : CachedScores(kind, seed);
        metrics_.RecordScoreLookup(cached != nullptr);
        if (cached != nullptr) {
          response = RenderScoredGroupsResponse(request.id, request.op,
                                                *cached, request.top);
          break;
        }
        auto result = RescoreArtifacts(artifacts_, kind, seed, &ctx);
        if (!result.ok()) {
          status = result.status();
          response = RenderErrorResponse(request.id, request.op, status);
          break;
        }
        ScoringStageOutput& scored = result.value();
        response = RenderScoredGroupsResponse(
            request.id, request.op, scored.scored_groups, request.top);
        // An ok result is a complete fit (the scoring stage reports a stop
        // as an error); only an undegraded one stands for (kind, seed).
        if (!scored.degraded()) {
          CachedScoring& entry = score_cache_[kind];
          entry.seed = seed;
          entry.resident = false;
          entry.scored_groups = std::move(scored.scored_groups);
        }
        break;
      }
      case ServeOp::kWhatIf: {
        DetectorKind kind = options_.pipeline.detector;
        if (!request.detector.empty() &&
            !ParseDetectorKind(request.detector, &kind)) {
          status = Status::InvalidArgument("unknown detector '" +
                                           request.detector + "'");
          response = RenderErrorResponse(request.id, request.op, status);
          break;
        }
        // Filter resident candidate groups (sorted node lists) and slice
        // their embedding rows; the scoring stage then runs exactly as a
        // sequential RunScoringStage over the same subset would.
        std::vector<std::vector<int>> groups;
        std::vector<size_t> rows;
        for (size_t i = 0; i < artifacts_.candidate_groups.size(); ++i) {
          const std::vector<int>& group = artifacts_.candidate_groups[i];
          // An id beyond the int range names no node: no group holds it.
          if (request.contains_node >= 0 &&
              (request.contains_node > INT32_MAX ||
               !std::binary_search(group.begin(), group.end(),
                                   static_cast<int>(request.contains_node)))) {
            continue;
          }
          const int size = static_cast<int>(group.size());
          if (request.min_size > 0 && size < request.min_size) continue;
          if (request.max_size > 0 && size > request.max_size) continue;
          rows.push_back(i);
          groups.push_back(group);
        }
        if (groups.empty()) {
          status = Status::FailedPrecondition(
              "what-if: no resident groups match the filter");
          response = RenderErrorResponse(request.id, request.op, status);
          break;
        }
        Matrix subset(groups.size(), artifacts_.group_embeddings.cols());
        for (size_t r = 0; r < rows.size(); ++r) {
          for (size_t c = 0; c < subset.cols(); ++c) {
            subset(r, c) = artifacts_.group_embeddings(rows[r], c);
          }
        }
        TpGrGadOptions options;
        options.detector = kind;
        options.seed = request.has_seed ? request.seed : artifacts_.seed;
        auto result = RunScoringStage(subset, groups, options, &ctx);
        if (!result.ok()) {
          status = result.status();
          response = RenderErrorResponse(request.id, request.op, status);
          break;
        }
        response = RenderScoredGroupsResponse(
            request.id, request.op, result.value().scored_groups, request.top);
        break;
      }
      case ServeOp::kStats: {
        response = ResponseHead(request.id, "stats", "ok")
                       .Key("metrics").Raw(MetricsJson())
                       .End().Take();
        break;
      }
      case ServeOp::kShutdown: {
        shutdown_.store(true, std::memory_order_relaxed);
        response = ResponseHead(request.id, "shutdown", "ok")
                       .Key("draining").Bool(true)
                       .End().Take();
        break;
      }
      case ServeOp::kAddEdge:
      case ServeOp::kRemoveEdge: {
        bool applied = false;
        int fanout = 0;
        const bool add = request.op == ServeOp::kAddEdge;
        // Ids beyond int range cannot name a node; treat as a structural
        // no-op rather than an error, matching DynamicGraph's semantics.
        if (request.u <= INT32_MAX && request.v <= INT32_MAX) {
          applied = ApplyEdgeMutation(add, static_cast<int>(request.u),
                                      static_cast<int>(request.v), &fanout);
        }
        if (applied && wal_ != nullptr) {
          // Durability before the ack: the record must survive a crash the
          // instant after the client reads the response. An append failure
          // rolls the mutation back (the dirty marks stay — harmless
          // over-invalidation) so memory never diverges from the log.
          GraphMutation m;
          m.kind = add ? GraphMutation::Kind::kAddEdge
                       : GraphMutation::Kind::kRemoveEdge;
          m.u = std::min(static_cast<int>(request.u),
                         static_cast<int>(request.v));
          m.v = std::max(static_cast<int>(request.u),
                         static_cast<int>(request.v));
          const uint64_t fsyncs_before = wal_->fsyncs();
          const uint64_t bytes_before = wal_->bytes_appended();
          status = wal_->Append(WalRecord::Kind::kMutation, m);
          if (!status.ok()) {
            if (add) {
              dynamic_.RemoveEdge(m.u, m.v);
            } else {
              dynamic_.AddEdge(m.u, m.v);
            }
            metrics_.RecordDurabilityError(status);
            response = RenderErrorResponse(request.id, request.op, status);
            break;
          }
          metrics_.RecordWalAppend(
              static_cast<size_t>(wal_->bytes_appended() - bytes_before),
              wal_->fsyncs() > fsyncs_before);
          // The logged-but-unacked kill window: recovery includes this op
          // even though the client never saw the ack.
          (void)FaultInjector::Global().Fires("wal/post-append-pre-ack");
        }
        metrics_.RecordMutation(applied, fanout);
        response = RenderMutationResponse(request.id, request.op, applied,
                                          fanout, dynamic_.num_edges());
        if (applied) MaybeSnapshot();
        break;
      }
      case ServeOp::kRefresh: {
        RefreshStats rstats;
        status = RefreshResident(&ctx, &rstats);
        if (!status.ok()) {
          response = RenderErrorResponse(request.id, request.op, status);
          break;
        }
        if (wal_ != nullptr) {
          // The refresh consumed the dirty marks and rewrote the resident
          // artifacts; the control record lets replay re-run it at exactly
          // this position. On append failure the refresh cannot be made
          // durable: unprime + re-mark so the next refresh (in this world
          // AND a recovered one) is the same history-independent full
          // resample.
          status = wal_->Append(WalRecord::Kind::kRefresh);
          if (!status.ok()) {
            tracker_.MarkAll();
            refresh_state_.primed = false;
            metrics_.RecordDurabilityError(status);
            response = RenderErrorResponse(request.id, request.op, status);
            break;
          }
        }
        metrics_.RecordRefresh(rstats.dirty_anchors, rstats.reused_anchors);
        response = RenderRefreshResponse(request.id, rstats.dirty_anchors,
                                         rstats.reused_anchors,
                                         artifacts_.scored_groups,
                                         request.top);
        break;
      }
      case ServeOp::kCompact: {
        if (wal_ != nullptr) {
          // Compaction only moves the compactions counter, but it surfaces
          // in compact responses: replaying the record keeps a recovered
          // daemon's count aligned, so a compaction that cannot be logged
          // is not counted either.
          status = wal_->Append(WalRecord::Kind::kCompact);
          if (!status.ok()) {
            metrics_.RecordDurabilityError(status);
            response = RenderErrorResponse(request.id, request.op, status);
            break;
          }
        }
        dynamic_.Compact();
        response = RenderCompactResponse(request.id, dynamic_.num_edges(),
                                         dynamic_.stats().compactions);
        break;
      }
      case ServeOp::kSync: {
        if (wal_ == nullptr) {
          status = Status::FailedPrecondition(
              "sync requires a daemon started with --state-dir");
          response = RenderErrorResponse(request.id, request.op, status);
          break;
        }
        status = wal_->Sync();
        if (!status.ok()) {
          metrics_.RecordDurabilityError(status);
          response = RenderErrorResponse(request.id, request.op, status);
          break;
        }
        metrics_.RecordWalSync();
        response = RenderSyncResponse(request.id, wal_->last_seq());
        break;
      }
      case ServeOp::kSnapshot: {
        status = SnapshotNow();
        if (!status.ok()) {
          if (wal_ != nullptr) metrics_.RecordDurabilityError(status);
          response = RenderErrorResponse(request.id, request.op, status);
          break;
        }
        response = RenderSnapshotResponse(request.id, wal_->last_seq());
        break;
      }
    }
  }

  if (status_out != nullptr) *status_out = status;
  if (timings_out != nullptr) *timings_out = ctx.stage_timings();
  return response;
}

}  // namespace grgad
