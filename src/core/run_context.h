// Per-run execution context threaded through every pipeline stage.
//
// A RunContext carries the three cross-cutting concerns the Engine stages
// share: cooperative cancellation (a CancelToken copied into the stage
// options so training loops poll it once per epoch), a progress callback
// fired when a stage starts and finishes, and per-stage wall-time telemetry
// accumulated across the run. Every stage entry point accepts a nullable
// RunContext*; passing nullptr runs the stage with no context overhead.
//
// Threading: the telemetry surface is thread-safe — concurrent StageScope
// brackets and RecordSubStage calls from different threads (the serving
// daemon's pattern) interleave without racing, and stage_timings() returns
// a consistent snapshot. RequestCancel() stays safe from any thread and
// from signal handlers. The remaining mutable state (on_progress, profile)
// is configure-before-use: set it before handing the context to stages and
// leave it alone while they run; on_progress itself must be thread-safe if
// stages run concurrently, since it fires from whichever thread finishes a
// stage.
#ifndef GRGAD_CORE_RUN_CONTEXT_H_
#define GRGAD_CORE_RUN_CONTEXT_H_

#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "src/util/cancel.h"
#include "src/util/status.h"
#include "src/util/timer.h"

namespace grgad {

/// Wall-clock seconds spent in one stage, in execution order.
struct StageTiming {
  std::string stage;
  double seconds = 0.0;
};

/// Progress notification: one event when a stage starts (seconds == 0) and
/// one when it finishes (seconds = stage wall time).
struct StageEvent {
  std::string stage;
  bool finished = false;
  double seconds = 0.0;
};

class RunContext {
 public:
  RunContext() = default;

  /// The run's cancellation token; copies handed to stage options alias it.
  const CancelToken& cancel_token() const { return cancel_; }

  /// Requests cooperative cancellation. Safe from any thread; the run
  /// unwinds at the next per-epoch / per-stage poll with StatusCode::
  /// kCancelled.
  void RequestCancel() { cancel_.RequestCancel(); }
  bool cancelled() const { return cancel_.cancelled(); }

  /// Arms a monotonic deadline `seconds` from now on the run's token. The
  /// deadline is polled at exactly the cancellation poll points (training
  /// epochs, anchor chunks, detector fits, stage boundaries); past it the
  /// run unwinds with StatusCode::kDeadlineExceeded.
  void SetDeadlineAfter(double seconds) { cancel_.SetDeadlineAfter(seconds); }

  /// Why the run stopped (kNone while still running): explicit cancel,
  /// deadline expiry, or a resource governor (arena byte budget).
  StopReason stop_reason() const { return cancel_.stop_reason(); }

  /// Optional observer, invoked synchronously on the thread running the
  /// stage (always outside the telemetry lock). Configure before handing
  /// the context to stages; must itself be thread-safe when stages run
  /// concurrently on this context.
  std::function<void(const StageEvent&)> on_progress;

  /// Opt into fine-grained sub-stage telemetry: stages that do distinct
  /// phases of work (currently scoring: "scoring/neighbors",
  /// "scoring/detect") bracket them with extra StageScopes, which land in
  /// stage_timings() alongside the top-level stages. Off by default so
  /// stage_timings() stays one-entry-per-stage for existing consumers; the
  /// CLI's --profile flag turns it on.
  bool profile = false;

  /// Snapshot of the telemetry for every finished stage, in completion
  /// order. Stages of repeated runs through the same context append (the
  /// context outlives a single RunPipeline call by design, e.g. run +
  /// rescore). Returns a copy so the snapshot stays consistent while other
  /// threads keep recording.
  std::vector<StageTiming> stage_timings() const;

  /// Records an externally measured sub-stage timing (e.g. the candidate
  /// stage's "candidates/search" phase, clocked inside the sampler where a
  /// StageScope cannot reach) and fires the finished progress event. Safe
  /// from any thread.
  void RecordSubStage(std::string stage, double seconds);

 private:
  friend class StageScope;

  void AppendTiming(const std::string& stage, double seconds);

  CancelToken cancel_;
  mutable std::mutex timings_mu_;
  std::vector<StageTiming> timings_;
};

/// Status for a run stopped during `activity` (e.g. "anchor stage",
/// "refresh"), typed by why it stopped: SIGINT/SIGTERM -> kCancelled,
/// --timeout -> kDeadlineExceeded, arena budget -> kResourceExhausted. A
/// null context reads as cancelled.
Status StopStatus(const RunContext* ctx, const std::string& activity);

/// RAII stage bracket: emits the started event on construction and records
/// timing + emits the finished event on destruction. Null-context safe.
class StageScope {
 public:
  StageScope(RunContext* ctx, std::string stage);
  ~StageScope();

  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  RunContext* ctx_;
  std::string stage_;
  Timer timer_;
};

}  // namespace grgad

#endif  // GRGAD_CORE_RUN_CONTEXT_H_
