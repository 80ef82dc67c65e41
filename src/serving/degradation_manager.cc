#include "src/serving/degradation_manager.h"

#include <algorithm>
#include <cmath>

#include "src/obs/metrics.h"

namespace ms {

Result<DegradationManager> DegradationManager::Make(
    const DegradationOptions& opts) {
  if (opts.max_queue < 1) {
    return Status::InvalidArgument("max_queue must be >= 1");
  }
  if (opts.max_wait_ticks < 0) {
    return Status::InvalidArgument("max_wait_ticks must be >= 0");
  }
  auto scheduler = LatencyScheduler::Make(opts.serving);
  MS_RETURN_NOT_OK(scheduler.status());
  return DegradationManager(opts, scheduler.MoveValueOrDie());
}

void DegradationManager::Reset() { queue_.clear(); }

int64_t DegradationManager::MaxBatchAtRate(const ServingConfig& config,
                                           double rate, int64_t max_queue,
                                           int64_t floor) {
  const double budget = config.latency_budget / 2.0;
  const double t = CheapestPrecision(config) == Precision::kInt8
                       ? config.full_sample_time_int8
                       : config.full_sample_time;
  const double per_sample = rate * rate * t;
  if (!(per_sample > 0.0) || !std::isfinite(per_sample)) return floor;
  auto fits = [&](int64_t n) {
    return LatencyScheduler::FitsBudget(n, rate, t, budget);
  };
  // Start from the closed form, then step to the predicate's own edge so
  // rounding can never put the bound past a batch Schedule rejects.
  const double guess = std::floor(budget / per_sample);
  int64_t n = max_queue;
  if (guess >= 0.0 && guess < static_cast<double>(max_queue)) {
    n = static_cast<int64_t>(guess);
  }
  while (n > 0 && !fits(n)) --n;
  while (n < max_queue && fits(n + 1)) ++n;
  return std::max(floor, n);
}

int64_t DegradationManager::MaxBatchWithinBudget(const ServingConfig& config) {
  return MaxBatchAtRate(config, config.lattice.lower_bound());
}

DegradationTick DegradationManager::Step(int arrivals) {
  DegradationTick tick;
  tick.arrivals = arrivals;

  // Age the queue; shed requests past their deadline.
  for (auto& age : queue_) ++age;
  while (!queue_.empty() && queue_.front() > opts_.max_wait_ticks) {
    queue_.pop_front();
    ++tick.shed;
  }

  // Enqueue new arrivals, shedding on overflow.
  for (int i = 0; i < arrivals; ++i) {
    if (static_cast<int64_t>(queue_.size()) >= opts_.max_queue) {
      ++tick.shed;
    } else {
      queue_.push_back(0);
    }
  }

  // Pick the largest batch that fits the tick budget at SOME trained rate:
  // prefer serving everything at a lower rate; if even the base rate can't
  // clear the queue, serve the base-rate-sized prefix and keep the rest.
  const int queue_len = static_cast<int>(queue_.size());
  const int max_at_base =
      static_cast<int>(MaxBatchWithinBudget(opts_.serving));
  const int batch = std::min(queue_len, std::max(0, max_at_base));

  if (batch > 0) {
    const TickDecision d = scheduler_.Schedule(batch);
    tick.processed = batch;
    tick.rate = d.rate;
    tick.precision = d.precision;
    tick.accuracy = d.accuracy;
    for (int i = 0; i < batch; ++i) queue_.pop_front();
  } else {
    tick.rate = opts_.serving.lattice.full_rate();
  }
  tick.backlog = static_cast<int>(queue_.size());

  // Per-tick degradation observability: shed/processed counters, the
  // chosen-rate distribution and queue depth after the tick.
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("ms_degradation_ticks_total")->Inc();
  registry.GetCounter("ms_degradation_arrivals_total")->Inc(tick.arrivals);
  registry.GetCounter("ms_degradation_processed_total")->Inc(tick.processed);
  registry.GetCounter("ms_degradation_shed_total")->Inc(tick.shed);
  registry.GetGauge("ms_degradation_backlog")->Set(tick.backlog);
  registry.GetHistogram("ms_degradation_queue_depth", obs::DepthBuckets())
      ->Observe(tick.backlog);
  if (tick.processed > 0) {
    registry.GetHistogram("ms_degradation_chosen_rate", obs::RateBuckets())
        ->Observe(tick.rate);
    if (tick.precision == Precision::kInt8) {
      registry.GetCounter("ms_degradation_int8_batches_total")->Inc();
    }
  }
  return tick;
}

DegradationSummary DegradationManager::Run(
    const std::vector<int>& arrivals, std::vector<DegradationTick>* ticks) {
  Reset();
  DegradationSummary summary;
  double rate_weighted = 0.0, acc_weighted = 0.0;
  std::vector<DegradationTick> local;
  local.reserve(arrivals.size());
  for (int n : arrivals) {
    const DegradationTick tick = Step(n);
    summary.total_arrivals += tick.arrivals;
    summary.total_processed += tick.processed;
    summary.total_shed += tick.shed;
    summary.max_backlog = std::max(summary.max_backlog, tick.backlog);
    rate_weighted += tick.rate * tick.processed;
    acc_weighted += tick.accuracy * tick.processed;
    local.push_back(tick);
  }
  // Drain the remaining backlog (count as shed for accounting symmetry).
  summary.total_shed += static_cast<int64_t>(queue_.size());
  if (summary.total_processed > 0) {
    summary.mean_rate =
        rate_weighted / static_cast<double>(summary.total_processed);
    summary.mean_accuracy =
        acc_weighted / static_cast<double>(summary.total_processed);
  }
  if (ticks != nullptr) *ticks = std::move(local);
  return summary;
}

}  // namespace ms
