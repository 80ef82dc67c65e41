// Tests for the backlog-aware degradation manager.
#include "gtest/gtest.h"
#include "src/serving/degradation_manager.h"
#include "src/serving/workload.h"

namespace ms {
namespace {

DegradationOptions DefaultOptions() {
  DegradationOptions opts;
  opts.serving.full_sample_time = 1.0;
  opts.serving.latency_budget = 32.0;  // tick budget 16 full-model samples
  opts.serving.lattice = SliceConfig::Make(0.25, 0.25).MoveValueOrDie();
  opts.serving.accuracy_per_rate = {0.91, 0.93, 0.94, 0.95};
  opts.max_queue = 64;
  opts.max_wait_ticks = 2;
  return opts;
}

TEST(DegradationManager, LightLoadFullRateNoBacklog) {
  auto mgr = DegradationManager::Make(DefaultOptions()).MoveValueOrDie();
  const DegradationTick t = mgr.Step(8);
  EXPECT_EQ(t.processed, 8);
  EXPECT_EQ(t.shed, 0);
  EXPECT_EQ(t.backlog, 0);
  EXPECT_DOUBLE_EQ(t.rate, 1.0);
}

TEST(DegradationManager, HeavyLoadSlicesDown) {
  auto mgr = DegradationManager::Make(DefaultOptions()).MoveValueOrDie();
  // 64 samples fit within budget 16 at r=0.5 (64 * 0.25 = 16).
  const DegradationTick t = mgr.Step(64);
  EXPECT_EQ(t.processed, 64);
  EXPECT_DOUBLE_EQ(t.rate, 0.5);
  EXPECT_EQ(t.backlog, 0);
}

TEST(DegradationManager, OverloadQueuesThenDrains) {
  auto opts = DefaultOptions();
  opts.max_queue = 1000;
  auto mgr = DegradationManager::Make(opts).MoveValueOrDie();
  // 300 > 256 = max processable at base rate (16 / 0.0625).
  const DegradationTick t1 = mgr.Step(300);
  EXPECT_EQ(t1.processed, 256);
  EXPECT_DOUBLE_EQ(t1.rate, 0.25);
  EXPECT_EQ(t1.backlog, 44);
  // Next quiet tick drains the backlog at a higher rate.
  const DegradationTick t2 = mgr.Step(0);
  EXPECT_EQ(t2.processed, 44);
  EXPECT_GT(t2.rate, 0.25);
  EXPECT_EQ(t2.backlog, 0);
}

TEST(DegradationManager, QueueOverflowSheds) {
  auto opts = DefaultOptions();
  opts.max_queue = 300;
  auto mgr = DegradationManager::Make(opts).MoveValueOrDie();
  const DegradationTick t = mgr.Step(400);
  EXPECT_EQ(t.shed, 100);   // overflow beyond the queue bound
  EXPECT_EQ(t.processed, 256);
  EXPECT_EQ(t.backlog, 44);
}

TEST(DegradationManager, DeadlineShedsStaleRequests) {
  auto opts = DefaultOptions();
  opts.max_queue = 10000;
  opts.max_wait_ticks = 1;
  auto mgr = DegradationManager::Make(opts).MoveValueOrDie();
  // Sustained overload: each tick only 256 can run at the base rate.
  mgr.Step(600);                      // backlog 344, all age 0
  const DegradationTick t2 = mgr.Step(600);  // backlog ages to 1 (kept)
  EXPECT_EQ(t2.shed, 0);
  const DegradationTick t3 = mgr.Step(600);  // oldest now age 2 > 1: shed
  EXPECT_GT(t3.shed, 0);
}

TEST(DegradationManager, RunSummariesAreConsistent) {
  auto mgr = DegradationManager::Make(DefaultOptions()).MoveValueOrDie();
  WorkloadOptions wl;
  wl.num_ticks = 100;
  wl.base_arrivals = 8.0;
  wl.peak_multiplier = 8.0;
  wl.seed = 3;
  const auto arrivals = GenerateWorkload(wl).MoveValueOrDie();
  std::vector<DegradationTick> ticks;
  const DegradationSummary s = mgr.Run(arrivals, &ticks);
  EXPECT_EQ(ticks.size(), arrivals.size());
  EXPECT_EQ(s.total_arrivals, s.total_processed + s.total_shed);
  EXPECT_GT(s.mean_accuracy, 0.9);
  EXPECT_LE(s.mean_rate, 1.0);
}

TEST(DegradationManager, Int8HoldsRateAndExtendsCapacity) {
  auto opts = DefaultOptions();
  opts.serving.full_sample_time_int8 = 0.25;  // second ladder rung
  opts.max_queue = 10000;
  auto mgr = DegradationManager::Make(opts).MoveValueOrDie();
  // 64 samples overran fp32 at r=1 (the fp32-only manager sheds to 0.5,
  // see HeavyLoadSlicesDown); the joint ladder instead drops precision
  // at the CURRENT rate: 64 * 1 * 0.25 = 16 fits the tick budget.
  const DegradationTick t = mgr.Step(64);
  EXPECT_EQ(t.processed, 64);
  EXPECT_DOUBLE_EQ(t.rate, 1.0);
  EXPECT_EQ(t.precision, Precision::kInt8);
  EXPECT_EQ(t.backlog, 0);
  // Capacity floor scales with the cheapest column: base-rate int8 admits
  // 4x the fp32-only max batch (16 / (0.0625 * 0.25) = 1024 vs 256).
  EXPECT_EQ(DegradationManager::MaxBatchWithinBudget(opts.serving), 1024);
  EXPECT_EQ(
      DegradationManager::MaxBatchWithinBudget(DefaultOptions().serving), 256);
}

TEST(DegradationManager, MaxBatchAtRateFollowsTheCheapestColumn) {
  auto serving = DefaultOptions().serving;  // T/2 = 16, t = 1
  EXPECT_EQ(DegradationManager::MaxBatchAtRate(serving, 1.0), 16);
  EXPECT_EQ(DegradationManager::MaxBatchAtRate(serving, 0.5), 64);
  EXPECT_EQ(DegradationManager::MaxBatchAtRate(serving, 0.25),
            DegradationManager::MaxBatchWithinBudget(serving));
  // The max_queue cap and the floor.
  EXPECT_EQ(DegradationManager::MaxBatchAtRate(serving, 0.25, 100), 100);
  EXPECT_EQ(DegradationManager::MaxBatchAtRate(serving, 1.0, 100, 40), 40);
  // A faster int8 column raises every bound; a slower one changes none.
  serving.full_sample_time_int8 = 0.25;
  EXPECT_EQ(DegradationManager::MaxBatchAtRate(serving, 1.0), 64);
  serving.full_sample_time_int8 = 2.0;
  EXPECT_EQ(DegradationManager::MaxBatchAtRate(serving, 1.0), 16);
}

// Property: every batch the server can cut (n up to the base-rate bound)
// is scheduled at a rate whose bound — the server's per-rate activation
// plan batch — is at least n, for every ordering of t and t8.
TEST(DegradationManager, ScheduledRateBoundCoversEveryCutBatch) {
  for (double t8 : {0.0, 0.25, 0.7, 1.0, 1.6, 3.0}) {
    for (double budget : {32.0, 37.3, 100.0}) {
      auto serving = DefaultOptions().serving;
      serving.full_sample_time_int8 = t8;
      serving.latency_budget = budget;
      auto sched = LatencyScheduler::Make(serving).MoveValueOrDie();
      const int64_t cut = DegradationManager::MaxBatchWithinBudget(serving);
      ASSERT_GE(cut, 1);
      for (int64_t n = 1; n <= cut; ++n) {
        const TickDecision d = sched.Schedule(static_cast<int>(n));
        EXPECT_TRUE(d.slo_met) << "n=" << n << " t8=" << t8;
        EXPECT_GE(DegradationManager::MaxBatchAtRate(serving, d.rate), n)
            << "n=" << n << " rate=" << d.rate << " t8=" << t8
            << " budget=" << budget;
      }
      // One past the cut is infeasible at every rate.
      EXPECT_FALSE(sched.Schedule(static_cast<int>(cut + 1)).slo_met);
    }
  }
}

TEST(DegradationManager, RejectsBadOptions) {
  auto opts = DefaultOptions();
  opts.max_queue = 0;
  EXPECT_FALSE(DegradationManager::Make(opts).ok());
  opts = DefaultOptions();
  opts.max_wait_ticks = -1;
  EXPECT_FALSE(DegradationManager::Make(opts).ok());
}

}  // namespace
}  // namespace ms
