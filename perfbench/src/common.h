// Shared helpers for the perfbench phases: clocks, order statistics, seeded
// inputs and the one-line JSON report each phase prints for run.py.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "src/models/cnn.h"
#include "src/models/zoo.h"
#include "src/tensor/tensor.h"
#include "src/util/flags.h"
#include "src/util/status.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// The value of flag `key`, which run.py must pass: every workload
/// parameter comes from perfbench/spec.json, so a missing one ends the
/// phase (code 2, no report) instead of falling back to a second default.
inline double FlagValue(const ms::Flags& flags, const std::string& key) {
  if (!flags.Has(key)) {
    std::fprintf(stderr, "perfbench: missing flag --%s\n", key.c_str());
    std::exit(2);
  }
  return flags.GetDouble(key, 0.0);
}

inline int64_t FlagInt(const ms::Flags& flags, const std::string& key) {
  FlagValue(flags, key);
  return flags.GetInt(key, 0);
}

/// Nearest-rank quantile, q in [0, 1]; NaN for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx =
      static_cast<size_t>(std::clamp(rank, 1.0, static_cast<double>(v.size())));
  return v[idx - 1];
}

/// The nearest-rank q-quantile counted from the good end of `v`: a share q
/// of the values are at least this good.
inline double BetterQuantile(std::vector<double> v, double q,
                             bool higher_is_better) {
  if (higher_is_better) {
    for (double& x : v) x = -x;
  }
  const double x = Quantile(std::move(v), q);
  return higher_is_better ? -x : x;
}

/// Midpoint median (mean of the two middle values for an even count).
inline double Median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double Max(const std::vector<double>& v) {
  return v.empty() ? std::nan("") : *std::max_element(v.begin(), v.end());
}

/// Generator for input stream `stream` of the run seeded with `seed`; the
/// same pair always yields the same sequence.
inline std::mt19937_64 MakeRng(uint64_t seed, uint64_t stream) {
  std::seed_seq seq{static_cast<uint32_t>(seed),
                    static_cast<uint32_t>(seed >> 32),
                    static_cast<uint32_t>(stream), 0x5eedu};
  return std::mt19937_64(seq);
}

/// A standard-normal tensor of `shape` drawn from `rng`.
inline ms::Tensor RandomTensor(const std::vector<int64_t>& shape,
                               std::mt19937_64* rng) {
  ms::Tensor t(shape);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  float* p = t.data();
  for (int64_t i = 0; i < t.size(); ++i) p[i] = dist(*rng);
  return t;
}

/// Exits the phase process (code 1, no report) when a set-up call fails.
inline void OrDie(const ms::Status& s, const char* what) {
  if (s.ok()) return;
  std::fprintf(stderr, "perfbench: %s: %s\n", what, s.ToString().c_str());
  std::exit(1);
}

/// vgg13 from the model zoo, with the zoo's fixed weight seed.
inline std::unique_ptr<ms::Sequential> BuildVgg13() {
  ms::ZooEntry entry = ms::GetZooModel("vgg13").MoveValueOrDie();
  return ms::MakeVggSmall(entry.config).MoveValueOrDie();
}

/// What one phase hands back to run.py: metric values with their sample
/// counts, operations attempted/failed, set-up times and every violated
/// check. Printed as the phase process's last stdout line.
class Report {
 public:
  explicit Report(std::string phase) : phase_(std::move(phase)) {}

  void Metric(const std::string& name, double value, int64_t samples) {
    metrics_[name] = value;
    samples_[name] = samples;
  }
  void Error(const std::string& what) { errors_.push_back(what); }
  void Check(bool ok, const std::string& what) {
    if (!ok) Error(what);
  }
  void AddAttempted(int64_t n) { attempted_ += n; }
  void AddFailed(int64_t n) { failed_ += n; }
  void AddSetup(double seconds) { setup_s_.push_back(seconds); }
  bool ok() const { return errors_.empty(); }

  void Print() const {
    std::string out = "{\"phase\":" + Quote(phase_);
    out += ",\"attempted\":" + std::to_string(attempted_);
    out += ",\"failed\":" + std::to_string(failed_);
    out += ",\"setup_s\":[";
    for (size_t i = 0; i < setup_s_.size(); ++i) {
      if (i > 0) out += ",";
      out += Number(setup_s_[i]);
    }
    out += "],\"errors\":[";
    for (size_t i = 0; i < errors_.size(); ++i) {
      if (i > 0) out += ",";
      out += Quote(errors_[i]);
    }
    out += "],\"metrics\":{";
    for (auto it = metrics_.begin(); it != metrics_.end(); ++it) {
      if (it != metrics_.begin()) out += ",";
      out += Quote(it->first);
      out += ":{\"value\":";
      out += Number(it->second);
      out += ",\"samples\":";
      out += std::to_string(samples_.at(it->first));
      out += "}";
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  static std::string Quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += (c == '\n') ? ' ' : c;
    }
    return out + "\"";
  }
  static std::string Number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  std::string phase_;
  std::map<std::string, double> metrics_;
  std::map<std::string, int64_t> samples_;
  std::vector<std::string> errors_;
  std::vector<double> setup_s_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// Phase entry points (one per file). Each returns the process exit code:
/// 0 when every check held, 1 otherwise; the report is printed either way.
int RunOffline(const ms::Flags& flags);
int RunSpike(const ms::Flags& flags);
int RunWire(const ms::Flags& flags);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
