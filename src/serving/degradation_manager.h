// Backlog-aware degradation manager: the production-shaped version of the
// Sec. 4.1 scheduler. Unlike the idealized per-tick simulation (every tick's
// batch fits or fails independently), this manager keeps a bounded queue —
// work that would overrun the tick budget at the base rate stays queued,
// and requests that exceed the queue bound or their per-request deadline are
// shed. This models the paper's motivating scenario: graceful, fine-grained
// degradation instead of coarse model swapping or crashes.
#ifndef MODELSLICING_SERVING_DEGRADATION_MANAGER_H_
#define MODELSLICING_SERVING_DEGRADATION_MANAGER_H_

#include <deque>
#include <limits>
#include <vector>

#include "src/serving/latency_scheduler.h"

namespace ms {

struct DegradationOptions {
  ServingConfig serving;
  int64_t max_queue = 256;   ///< requests beyond this are shed immediately.
  int max_wait_ticks = 2;    ///< deadline: ticks a request may wait queued.
};

struct DegradationTick {
  int arrivals = 0;
  int processed = 0;
  int shed = 0;              ///< dropped (queue overflow or deadline).
  int backlog = 0;           ///< queue length after the tick.
  double rate = 1.0;
  Precision precision = Precision::kFp32;  ///< precision for the batch.
  double accuracy = 0.0;
};

struct DegradationSummary {
  int64_t total_arrivals = 0;
  int64_t total_processed = 0;
  int64_t total_shed = 0;
  double mean_rate = 0.0;      ///< processed-weighted.
  double mean_accuracy = 0.0;  ///< processed-weighted.
  int max_backlog = 0;
};

/// \brief Runs the queue + slice-rate policy over an arrival trace.
class DegradationManager {
 public:
  static Result<DegradationManager> Make(const DegradationOptions& opts);

  /// Process one tick with `arrivals` new requests.
  DegradationTick Step(int arrivals);

  /// Reset the queue state.
  void Reset();

  /// Convenience: run a whole trace from a clean state.
  DegradationSummary Run(const std::vector<int>& arrivals,
                         std::vector<DegradationTick>* ticks = nullptr);

  /// Largest batch the scheduler can assign at `rate`: the largest n that
  /// passes LatencyScheduler::FitsBudget at `rate` with the cheapest
  /// calibrated precision (CheapestPrecision), capped at `max_queue` (a
  /// cut never exceeds the queue) and raised to at least `floor`. For
  /// every n up to MaxBatchWithinBudget, Schedule(n) returns a rate whose
  /// bound is >= n, so the SliceServer sizes its per-rate activation plans
  /// with it.
  static int64_t MaxBatchAtRate(
      const ServingConfig& config, double rate,
      int64_t max_queue = std::numeric_limits<int64_t>::max(),
      int64_t floor = 0);

  /// MaxBatchAtRate at the base (lowest) rate — the last rung of the
  /// shedding ladder before work must stay queued. With an int8 cost
  /// column calibrated and cheaper, "drop to int8 at the base rate" is
  /// that rung, so the queue drains up to t_fp32/t_int8 times faster
  /// before shedding. Shared with the real-time SliceServer so simulation
  /// and serving apply the identical policy.
  static int64_t MaxBatchWithinBudget(const ServingConfig& config);

 private:
  DegradationManager(DegradationOptions opts, LatencyScheduler scheduler)
      : opts_(std::move(opts)), scheduler_(std::move(scheduler)) {}

  DegradationOptions opts_;
  LatencyScheduler scheduler_;
  std::deque<int> queue_;  ///< per-request age in ticks.
};

}  // namespace ms

#endif  // MODELSLICING_SERVING_DEGRADATION_MANAGER_H_
