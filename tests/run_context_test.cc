// Thread-safety of the RunContext telemetry surface — the serving daemon's
// usage pattern: several threads bracketing StageScopes and recording
// sub-stage timings on one shared context. The assertions check that no
// sample is lost and every progress event fires; the TSan CI job is what
// turns an unlocked interleaving into a hard failure.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "src/core/run_context.h"

namespace grgad {
namespace {

constexpr int kThreads = 8;
constexpr int kIters = 32;

TEST(RunContextTest, ConcurrentTelemetryLosesNoSamples) {
  RunContext ctx;
  std::atomic<int> started{0};
  std::atomic<int> finished{0};
  ctx.on_progress = [&](const StageEvent& event) {
    (event.finished ? finished : started).fetch_add(1,
                                                    std::memory_order_relaxed);
  };

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&ctx, t] {
      const std::string stage = "stage-" + std::to_string(t);
      const std::string sub = "sub-" + std::to_string(t);
      for (int i = 0; i < kIters; ++i) {
        { StageScope scope(&ctx, stage); }
        ctx.RecordSubStage(sub, 0.25e-3);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  // One StageScope timing plus one sub-stage timing per iteration.
  const std::vector<StageTiming> timings = ctx.stage_timings();
  EXPECT_EQ(timings.size(),
            static_cast<size_t>(kThreads) * kIters * 2);
  // StageScope emits started+finished; RecordSubStage emits finished only.
  EXPECT_EQ(started.load(), kThreads * kIters);
  EXPECT_EQ(finished.load(), kThreads * kIters * 2);

  double sub_seconds = 0.0;
  for (const StageTiming& t : timings) {
    if (t.stage.rfind("sub-", 0) == 0) sub_seconds += t.seconds;
  }
  EXPECT_NEAR(sub_seconds, kThreads * kIters * 0.25e-3, 1e-9);
}

TEST(RunContextTest, SnapshotStaysConsistentWhileRecording) {
  RunContext ctx;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < 4 * kIters; ++i) ctx.RecordSubStage("w", 1e-6);
    done.store(true, std::memory_order_release);
  });
  // Concurrent readers must always observe fully-formed entries.
  while (!done.load(std::memory_order_acquire)) {
    for (const StageTiming& t : ctx.stage_timings()) {
      ASSERT_EQ(t.stage, "w");
    }
  }
  writer.join();
  EXPECT_EQ(ctx.stage_timings().size(), static_cast<size_t>(4 * kIters));
}

}  // namespace
}  // namespace grgad
