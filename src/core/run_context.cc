#include "src/core/run_context.h"

#include <utility>

namespace grgad {

Status StopStatus(const RunContext* ctx, const std::string& activity) {
  const StopReason reason =
      ctx != nullptr ? ctx->stop_reason() : StopReason::kCancelled;
  switch (reason) {
    case StopReason::kDeadlineExceeded:
      return Status::DeadlineExceeded("deadline exceeded during " + activity);
    case StopReason::kResourceExhausted:
      return Status::ResourceExhausted("resource budget exhausted during " +
                                       activity);
    default:
      return Status::Cancelled("run cancelled during " + activity);
  }
}

void RunContext::AppendTiming(const std::string& stage, double seconds) {
  std::lock_guard<std::mutex> lock(timings_mu_);
  timings_.push_back({stage, seconds});
}

std::vector<StageTiming> RunContext::stage_timings() const {
  std::lock_guard<std::mutex> lock(timings_mu_);
  return timings_;
}

void RunContext::RecordSubStage(std::string stage, double seconds) {
  AppendTiming(stage, seconds);
  // The observer fires outside the lock: it may itself read stage_timings().
  if (on_progress) {
    on_progress({std::move(stage), /*finished=*/true, seconds});
  }
}

StageScope::StageScope(RunContext* ctx, std::string stage)
    : ctx_(ctx), stage_(std::move(stage)) {
  if (ctx_ != nullptr && ctx_->on_progress) {
    ctx_->on_progress({stage_, /*finished=*/false, 0.0});
  }
}

StageScope::~StageScope() {
  if (ctx_ == nullptr) return;
  const double seconds = timer_.ElapsedSeconds();
  ctx_->AppendTiming(stage_, seconds);
  if (ctx_->on_progress) {
    ctx_->on_progress({stage_, /*finished=*/true, seconds});
  }
}

}  // namespace grgad
