// The benchmark's own load generator. Arrival times are drawn from the run
// seed alone and sent open-loop: each request goes out at its due time
// whether or not earlier ones have finished, so a stalled server builds a
// queue instead of slowing the offered load. The offered rate is a fixed
// requests/s constant from spec.json; nothing here reads the program's
// calibration.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <algorithm>
#include <cstdint>
#include <random>
#include <thread>
#include <vector>

#include "perfbench/src/common.h"

namespace perfbench {

/// The paper's Sec. 4.1 traffic shape (the same shape GenerateWorkload
/// draws): Poisson arrivals per tick at an off-peak base, a sustained peak
/// window at `peak_mult` x base, and isolated spike ticks at `spike_mult` x
/// base.
struct SpikeShape {
  double base_rps = 0.0;
  double tick_s = 0.0;
  double peak_mult = 0.0;
  double peak_begin = 0.0;  ///< peak window, as fractions of the horizon.
  double peak_end = 0.0;
  double spike_prob = 0.0;  ///< chance that a tick is a spike tick.
  double spike_mult = 0.0;
};

/// Due times (seconds from the start of the run, ascending) over
/// `seconds` of the spike shape; `stream` selects one of the seed's
/// independent draws.
inline std::vector<double> SpikeArrivals(const SpikeShape& shape,
                                         double seconds, uint64_t seed,
                                         uint64_t stream) {
  std::mt19937_64 rng = MakeRng(seed, 1000 + stream);
  std::bernoulli_distribution spike(shape.spike_prob);
  std::uniform_real_distribution<double> within(0.0, shape.tick_s);
  const int64_t ticks =
      std::max<int64_t>(1, static_cast<int64_t>(seconds / shape.tick_s));
  std::vector<double> due;
  for (int64_t k = 0; k < ticks; ++k) {
    const double phase = static_cast<double>(k) / static_cast<double>(ticks);
    double lambda = shape.base_rps * shape.tick_s;
    if (phase >= shape.peak_begin && phase < shape.peak_end) {
      lambda *= shape.peak_mult;
    }
    if (spike(rng)) lambda = shape.base_rps * shape.tick_s * shape.spike_mult;
    const int64_t n = std::poisson_distribution<int64_t>(lambda)(rng);
    const size_t first = due.size();
    for (int64_t i = 0; i < n; ++i) {
      due.push_back(static_cast<double>(k) * shape.tick_s + within(rng));
    }
    std::sort(due.begin() + static_cast<std::ptrdiff_t>(first), due.end());
  }
  return due;
}

/// Due times of a steady Poisson process at `rps` over `seconds`.
inline std::vector<double> PoissonArrivals(double rps, double seconds,
                                           uint64_t seed, uint64_t stream) {
  std::mt19937_64 rng = MakeRng(seed, 2000 + stream);
  std::exponential_distribution<double> gap(rps);
  std::vector<double> due;
  for (double t = gap(rng); t < seconds; t += gap(rng)) due.push_back(t);
  return due;
}

/// Sends request i at start + due[i] by calling send(i, due_time) and
/// returns how late each send began, in seconds.
template <typename Send>
std::vector<double> RunOpenLoop(Clock::time_point start,
                                const std::vector<double>& due, Send&& send) {
  std::vector<double> lag(due.size());
  for (size_t i = 0; i < due.size(); ++i) {
    const Clock::time_point at =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(due[i]));
    if (Clock::now() < at) std::this_thread::sleep_until(at);
    lag[i] = Seconds(Clock::now() - at);
    send(i, at);
  }
  return lag;
}

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
