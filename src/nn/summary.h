// Human-readable model summaries: a per-layer table of active widths,
// parameters and FLOPs at a chosen slice rate — the "what am I deploying at
// r = 0.5?" view.
#ifndef MODELSLICING_NN_SUMMARY_H_
#define MODELSLICING_NN_SUMMARY_H_

#include <string>
#include <vector>

#include "src/nn/module.h"

namespace ms {

struct LayerSummary {
  std::string name;
  std::string kind;        ///< "dense", "conv", "norm", ... ("" = untyped).
  int64_t active_params = 0;
  int64_t flops = 0;       ///< per sample, at the summarized rate.
  int depth = 0;           ///< nesting depth inside Sequential containers.
  /// Mean measured forward wall time at the summarized rate, taken from the
  /// active obs::SliceProfiler session; 0 when no profiler is active.
  /// Container layers include their children's time.
  double fwd_millis = 0.0;
};

struct ModelSummary {
  double rate = 1.0;
  std::vector<LayerSummary> layers;
  int64_t total_params = 0;   ///< active at `rate`.
  int64_t total_flops = 0;
};

/// Forward passes Summarize runs and, under a profiler session, averages.
inline constexpr int kSummaryTimedForwards = 10;

/// Walks `net` (recursing into Sequential and ResidualBlock containers)
/// after slicing it to `rate` and running kSummaryTimedForwards forward
/// passes on `sample` so spatial extents are known. When an
/// obs::SliceProfiler session is active the passes are timed per layer and
/// per-layer `fwd_millis` is their mean, so Summarize doubles as a quick
/// profiling report; run one forward outside the session first so the
/// mean covers warm forwards only (weight packing, first-touch allocation).
ModelSummary Summarize(Module* net, const Tensor& sample, double rate);

/// Renders the summary as an aligned text table. A measured "fwd ms" column
/// appears when any layer carries profiling data.
std::string FormatSummary(const ModelSummary& summary);

}  // namespace ms

#endif  // MODELSLICING_NN_SUMMARY_H_
