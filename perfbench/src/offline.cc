// offline phase: one caller runs Module::Forward back to back on vgg13 at
// fixed operating points (rate, precision, batch, threads). No server, no
// sockets: this isolates the tensor, nn and models layers.
//
// Every timed output is checked bit for bit against a 1-thread reference
// forward of the same (rate, precision, input) computed at set-up, which is
// the repo's determinism contract (identical bits at any thread count).
//
// The traced pass (--trace=1) walks the Sequential's children the way
// Sequential::DoForward does and times each child's public Forward, giving
// per-layer-kind time that must reconcile with the whole forward.
#include <sched.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "src/nn/conv2d.h"
#include "src/nn/dense.h"
#include "src/nn/norm.h"
#include "src/nn/pooling.h"
#include "src/tensor/activation_arena.h"
#include "src/tensor/gemm.h"
#include "src/tensor/prepack.h"

namespace perfbench {
namespace {

using ms::Precision;

constexpr int kInputsPerOp = 4;
constexpr double kFwdQuantile = 0.01;
constexpr double kBlockSeconds = 0.25;  ///< one thread setting per block.
const std::vector<int64_t> kSampleShape = {3, 12, 12};  // vgg13's input.

struct OpPoint {
  std::string tag;  ///< metric suffix: fwd_us.<tag>.
  double rate = 1.0;
  Precision precision = Precision::kFp32;
  int64_t batch = 8;
  bool multi_thread = false;  ///< nproc compute threads, else 1.
  std::vector<ms::Tensor> inputs;
  std::vector<ms::Tensor> refs;  ///< 1-thread outputs, one per input.
  std::vector<double> us_per_sample;
};

std::vector<OpPoint> MakeOps(uint64_t seed) {
  std::vector<OpPoint> ops = {
      {"r0.25", 0.25, Precision::kFp32, 8, false, {}, {}, {}},
      {"r0.5", 0.5, Precision::kFp32, 8, false, {}, {}, {}},
      {"r1", 1.0, Precision::kFp32, 8, false, {}, {}, {}},
      {"int8.r0.25", 0.25, Precision::kInt8, 8, false, {}, {}, {}},
      {"int8.r1", 1.0, Precision::kInt8, 8, false, {}, {}, {}},
      {"mt.b1.r0.25", 0.25, Precision::kFp32, 1, true, {}, {}, {}},
      {"mt.b32.r1", 1.0, Precision::kFp32, 32, true, {}, {}, {}},
  };
  for (size_t i = 0; i < ops.size(); ++i) {
    std::mt19937_64 rng = MakeRng(seed, 100 + i);
    std::vector<int64_t> shape = {ops[i].batch};
    shape.insert(shape.end(), kSampleShape.begin(), kSampleShape.end());
    for (int k = 0; k < kInputsPerOp; ++k) {
      ops[i].inputs.push_back(RandomTensor(shape, &rng));
    }
  }
  return ops;
}

void Configure(ms::Module* net, const OpPoint& op) {
  net->SetSliceRate(op.rate);
  net->SetPrecision(op.precision);
}

bool SameBits(const ms::Tensor& a, const ms::Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.size()) * sizeof(float)) == 0;
}

bool AllFinite(const ms::Tensor& t) {
  for (int64_t i = 0; i < t.size(); ++i) {
    if (!std::isfinite(t.data()[i])) return false;
  }
  return true;
}

/// Set-up as a user pays it: build the model, run the first (cold) forward
/// at every operating point, and compute the 1-thread reference outputs.
std::unique_ptr<ms::Sequential> SetUp(std::vector<OpPoint>* ops,
                                      int mt_threads) {
  auto net = BuildVgg13();
  ms::ops::SetComputeThreads(1);
  for (OpPoint& op : *ops) {
    Configure(net.get(), op);
    net->Forward(op.inputs[0], false);
    op.refs.clear();
    for (const ms::Tensor& x : op.inputs) {
      op.refs.push_back(net->Forward(x, false));
    }
  }
  ms::ops::SetComputeThreads(mt_threads);
  for (OpPoint& op : *ops) {
    if (!op.multi_thread) continue;
    Configure(net.get(), op);
    net->Forward(op.inputs[0], false);
  }
  return net;
}

enum Kind { kConv, kNorm, kPool, kDense, kOther, kNumKinds };
const char* const kKindNames[kNumKinds] = {"conv", "norm", "pool", "dense",
                                           "other"};

Kind KindOf(ms::Module* m) {
  if (dynamic_cast<ms::Conv2d*>(m)) return kConv;
  if (dynamic_cast<ms::GroupNorm*>(m) || dynamic_cast<ms::BatchNorm*>(m) ||
      dynamic_cast<ms::MultiBatchNorm*>(m)) {
    return kNorm;
  }
  if (dynamic_cast<ms::MaxPool2d*>(m) || dynamic_cast<ms::GlobalAvgPool*>(m)) {
    return kPool;
  }
  if (dynamic_cast<ms::Dense*>(m)) return kDense;
  return kOther;
}

/// Per-sample microseconds by layer kind for one traced op point.
struct LayerTimes {
  std::vector<double> kind_us[kNumKinds];
  std::vector<double> walk_us;   ///< sum over children, per round.
  std::vector<double> whole_us;  ///< whole Forward, interleaved.
  int64_t conv_flops_per_sample = 0;
};

}  // namespace

int RunOffline(const ms::Flags& flags) {
  Report report("offline");
  const uint64_t seed = static_cast<uint64_t>(FlagInt(flags, "seed"));
  const double seconds = FlagValue(flags, "seconds");
  const int setup_repeats =
      std::max<int>(1, static_cast<int>(FlagInt(flags, "setup_repeats")));
  const bool trace = FlagInt(flags, "trace") != 0;

  // The multi-thread op points use every CPU this process may run on.
  cpu_set_t all_cpus;
  CPU_ZERO(&all_cpus);
  sched_getaffinity(0, sizeof(all_cpus), &all_cpus);
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all_cpus)) cpus.push_back(c);
  }
  const int mt_threads = static_cast<int>(cpus.size());

  std::vector<OpPoint> ops = MakeOps(seed);
  const Clock::time_point setup0 = Clock::now();
  std::unique_ptr<ms::Sequential> net = SetUp(&ops, mt_threads);
  report.AddSetup(SecondsSince(setup0));
  for (const OpPoint& op : ops) {
    for (const ms::Tensor& ref : op.refs) {
      report.Check(AllFinite(ref), "non-finite reference output at " + op.tag);
    }
  }

  // A set-up repeat builds a second model from scratch, times it like the
  // first, and checks that its reference outputs match the first set-up's
  // bit for bit. Its packs, prepacked calls and slab allocations are
  // subtracted from the timed loop's counters.
  ms::ops::PackStats setup_packs;
  uint64_t setup_slabs = 0;
  auto repeat_setup = [&]() {
    sched_setaffinity(0, sizeof(all_cpus), &all_cpus);
    const ms::ops::PackStats p0 = ms::ops::GetPackStats();
    const uint64_t s0 = ms::ArenaCore::TotalSlabAllocs();
    std::vector<OpPoint> fresh = MakeOps(seed);
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<ms::Sequential> again = SetUp(&fresh, mt_threads);
    report.AddSetup(SecondsSince(t0));
    for (size_t i = 0; i < ops.size(); ++i) {
      for (size_t k = 0; k < ops[i].refs.size(); ++k) {
        if (!SameBits(fresh[i].refs[k], ops[i].refs[k])) {
          report.Error("set-up repeat changed the reference at " + ops[i].tag);
          break;
        }
      }
    }
    again.reset();
    const ms::ops::PackStats p1 = ms::ops::GetPackStats();
    setup_packs.packs += p1.packs - p0.packs;
    setup_packs.prepacked_calls += p1.prepacked_calls - p0.prepacked_calls;
    setup_slabs += ms::ArenaCore::TotalSlabAllocs() - s0;
  };

  // Timed closed loop. Single- and multi-thread op points run in
  // alternating blocks so slow drift over the run hits both alike; a pool
  // resize is followed by one untimed forward per op point. Single-thread
  // blocks visit the allowed CPUs in turn, so one contended vCPU cannot
  // hold the caller for the whole run. The set-up repeats are spread evenly
  // over the run between blocks, so set-up time samples the whole run
  // rather than one contention spell; their time does not count against
  // the loop's `seconds`.
  const ms::ops::PackStats packs0 = ms::ops::GetPackStats();
  const uint64_t slabs0 = ms::ArenaCore::TotalSlabAllocs();
  int64_t forwards = 0, mismatches = 0;
  const Clock::duration run = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
  const Clock::time_point loop_start = Clock::now();
  Clock::duration setup_spent{0};
  int setups_done = 1;
  for (int block = 0; Clock::now() - setup_spent < loop_start + run;
       ++block) {
    if (setups_done < setup_repeats &&
        Clock::now() - setup_spent >=
            loop_start + run * setups_done / setup_repeats) {
      const Clock::time_point r0 = Clock::now();
      repeat_setup();
      setup_spent += Clock::now() - r0;
      ++setups_done;
    }
    const Clock::time_point end = loop_start + run + setup_spent;
    const bool mt = block % 2 == 1;
    if (mt) {
      // Pool threads inherit the caller's affinity: widen it first.
      sched_setaffinity(0, sizeof(all_cpus), &all_cpus);
      ms::ops::SetComputeThreads(mt_threads);
    } else {
      ms::ops::SetComputeThreads(1);
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus[static_cast<size_t>(block / 2) % cpus.size()], &one);
      sched_setaffinity(0, sizeof(one), &one);
    }
    for (OpPoint& op : ops) {
      if (op.multi_thread != mt) continue;
      Configure(net.get(), op);
      net->Forward(op.inputs[0], false);
    }
    const Clock::time_point block_end =
        std::min(end, Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(kBlockSeconds)));
    for (int iter = 0; Clock::now() < block_end; ++iter) {
      for (OpPoint& op : ops) {
        if (op.multi_thread != mt) continue;
        const int k = iter % kInputsPerOp;
        Configure(net.get(), op);
        const Clock::time_point t0 = Clock::now();
        ms::Tensor y = net->Forward(op.inputs[static_cast<size_t>(k)], false);
        const double dt = SecondsSince(t0);
        ++forwards;
        op.us_per_sample.push_back(dt * 1e6 / static_cast<double>(op.batch));
        if (!AllFinite(y) || !SameBits(y, op.refs[static_cast<size_t>(k)])) {
          if (++mismatches <= 3) {
            report.Error("output differs from the 1-thread reference at " +
                         op.tag);
          }
        }
      }
    }
  }
  sched_setaffinity(0, sizeof(all_cpus), &all_cpus);
  ms::ops::PackStats packs1 = ms::ops::GetPackStats();
  packs1.packs -= setup_packs.packs;
  packs1.prepacked_calls -= setup_packs.prepacked_calls;
  const uint64_t slabs1 = ms::ArenaCore::TotalSlabAllocs() - setup_slabs;
  report.AddAttempted(forwards);
  report.AddFailed(mismatches);

  // fwd_us is the 1st percentile, not the median: on a shared host a vCPU
  // flips between uncontended and ~1.5x-slower contended spells, and the
  // share of the run spent in each varies from run to run. The median and
  // even the 10th percentile can land in either mode (spread up to 0.3
  // over 5 seeds), while the 1st percentile stays in the uncontended one.
  // The median is kept as context.
  for (const OpPoint& op : ops) {
    report.Check(!op.us_per_sample.empty(), "no timed forward at " + op.tag);
    const int64_t n = static_cast<int64_t>(op.us_per_sample.size());
    report.Metric("fwd_us." + op.tag, Quantile(op.us_per_sample, kFwdQuantile),
                  n);
    report.Metric("fwd_us_median." + op.tag, Median(op.us_per_sample), n);
  }
  if (!trace) {
    report.Print();
    return report.ok() ? 0 : 1;
  }

  // ---- traced pass: per-layer metrics -----------------------------------
  auto fwd_us = [&](const std::string& tag) {
    for (const OpPoint& op : ops) {
      if (op.tag == tag) return Quantile(op.us_per_sample, kFwdQuantile);
    }
    return std::nan("");
  };
  report.Metric("tensor.packs", static_cast<double>(packs1.packs - packs0.packs),
                forwards);
  report.Metric("tensor.arena_slab_allocs",
                static_cast<double>(slabs1 - slabs0), forwards);
  report.Metric("tensor.prepacked_calls_per_fwd",
                static_cast<double>(packs1.prepacked_calls -
                                    packs0.prepacked_calls) /
                    static_cast<double>(std::max<int64_t>(1, forwards)),
                forwards);
  for (const auto& [tag, r] : {std::pair<std::string, double>{"r0.25", 0.25},
                               {"r0.5", 0.5}}) {
    report.Metric("models.cost_vs_r2." + tag,
                  fwd_us(tag) / (r * r * fwd_us("r1")), 1);
  }

  ms::ops::SetComputeThreads(1);
  std::vector<OpPoint*> traced;
  std::vector<LayerTimes> times;
  for (OpPoint& op : ops) {
    if (!op.multi_thread) traced.push_back(&op);
  }
  times.resize(traced.size());
  for (size_t j = 0; j < traced.size(); ++j) {
    Configure(net.get(), *traced[j]);
    for (size_t i = 0; i < net->size(); ++i) {
      if (KindOf(net->child(i)) == kConv) {
        times[j].conv_flops_per_sample += net->child(i)->FlopsPerSample();
      }
    }
  }
  const Clock::time_point trace_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (int iter = 0; Clock::now() < trace_end; ++iter) {
    for (size_t j = 0; j < traced.size(); ++j) {
      OpPoint& op = *traced[j];
      LayerTimes& lt = times[j];
      const int k = iter % kInputsPerOp;
      const double n = static_cast<double>(op.batch);
      Configure(net.get(), op);
      const Clock::time_point w0 = Clock::now();
      ms::Tensor whole = net->Forward(op.inputs[static_cast<size_t>(k)], false);
      lt.whole_us.push_back(SecondsSince(w0) * 1e6 / n);

      double kind_us[kNumKinds] = {};
      ms::Tensor h = op.inputs[static_cast<size_t>(k)];
      for (size_t i = 0; i < net->size(); ++i) {
        ms::Module* child = net->child(i);
        if (child->BypassedAtInference()) continue;  // as Sequential does
        const Clock::time_point t0 = Clock::now();
        h = child->Forward(h, false);
        kind_us[KindOf(child)] += SecondsSince(t0) * 1e6 / n;
      }
      double walk = 0.0;
      for (int c = 0; c < kNumKinds; ++c) {
        lt.kind_us[c].push_back(kind_us[c]);
        walk += kind_us[c];
      }
      lt.walk_us.push_back(walk);
      if (!SameBits(h, op.refs[static_cast<size_t>(k)]) ||
          !SameBits(whole, op.refs[static_cast<size_t>(k)])) {
        report.Error("traced forward differs from the reference at " + op.tag);
      }
    }
  }

  double reconcile_gap = 0.0;
  for (size_t j = 0; j < traced.size(); ++j) {
    const OpPoint& op = *traced[j];
    const LayerTimes& lt = times[j];
    const int64_t rounds = static_cast<int64_t>(lt.walk_us.size());
    const bool int8 = op.precision == Precision::kInt8;
    for (int c = 0; c < kOther; ++c) {
      // int8 changes only the GEMM layers, so the int8 rows are conv and
      // dense; the other kinds are reported at fp32.
      if (int8 && c != kConv && c != kDense) continue;
      report.Metric(std::string("nn.") + kKindNames[c] + ".us." + op.tag,
                    Median(lt.kind_us[c]), rounds);
    }
    if (!int8 && (op.tag == "r0.25" || op.tag == "r1")) {
      const double conv_s = Median(lt.kind_us[kConv]) * 1e-6;
      report.Metric("nn.conv.gflops." + op.tag,
                    static_cast<double>(lt.conv_flops_per_sample) / conv_s *
                        1e-9,
                    rounds);
    }
    const double whole = Median(lt.whole_us);
    reconcile_gap =
        std::max(reconcile_gap, std::fabs(Median(lt.walk_us) - whole) / whole);
    if (op.tag == "r1") {
      // The walk against whole forwards interleaved with it, so both see
      // the same host conditions.
      report.Metric("trace.overhead.fwd_us.r1", Median(lt.walk_us) - whole,
                    rounds);
    }
  }
  report.Metric("nn.reconcile_gap", reconcile_gap,
                static_cast<int64_t>(times.empty() ? 0 : times[0].walk_us.size()));
  report.Print();
  return report.ok() ? 0 : 1;
}

}  // namespace perfbench
