// spike phase: an open loop into an in-process SliceServer (2 vgg13
// replicas, 1 compute thread each, lattice {0.25, 0.5, 0.75, 1}) under the
// paper's Sec. 4.1 traffic: an off-peak base, a 10x peak window and 16x
// spike ticks at a fixed absolute rate.
//
// A run is several passes, each on a freshly created and started server
// with its own arrivals. The server calibrates its per-sample time t at
// Start() and every rate decision scales with it, so one pass reflects one
// calibration draw.
//
// ontime_frac and the latency percentiles are a deadline threshold effect:
// p99 sits a few ms under the 30 ms deadline, so a pass in which the host
// takes CPU time from the VM (its generator then runs 5-20 ms late) misses
// deadlines the program would meet, and on a busy host most passes of a run
// do. Those three are therefore the better decile over passes (second best
// of 12), as fwd_us is a low percentile of forwards. A change in the program
// moves every pass, so it moves this statistic too; a fault armed through
// MS_FAULTS does (check.py fault). mean_rate does not hinge on the deadline
// and is the median over passes. The medians of the other three are kept
// as context.
//
// Latency runs from each request's due time to its completion callback; a
// request refused at admission has no callback and no latency sample. A
// request is on time when it was served within the deadline of its due
// time; served-late, shed, expired, rejected and failed requests (refused
// ones included) are all misses.
//
// Checks: exactly one terminal callback per accepted request (none for a
// refused one), and the benchmark's own tally equals ServerStats with
// submitted == served + shed + expired + rejected + failed.
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/loadgen.h"
#include "src/core/slice_config.h"
#include "src/nn/serialize.h"
#include "src/obs/request_trace.h"
#include "src/serving/server.h"
#include "src/tensor/activation_arena.h"
#include "src/tensor/gemm.h"
#include "src/tensor/prepack.h"

namespace perfbench {
namespace {

using ms::AdmitResult;
using ms::RequestOutcome;

struct Slot {
  std::atomic<int> calls{0};
  RequestOutcome outcome = RequestOutcome::kServed;
  double rate = 0.0;
  AdmitResult admit = AdmitResult::kAccepted;
  Clock::time_point due;
  Clock::time_point done;
};

struct Config {
  SpikeShape shape;
  double budget_s = 0.0;    ///< T; the batcher ticks every T/2.
  double deadline_s = 0.0;  ///< per request, from its due time.
  int replicas = 0;
  int64_t max_queue = 0;
};

constexpr double kPassQuantile = 0.10;  ///< from the good end; see above.

const std::vector<std::pair<std::string, double>> kLattice = {
    {"r0.25", 0.25}, {"r0.5", 0.5}, {"r0.75", 0.75}, {"r1", 1.0}};

/// Creates and starts a server; `setup_s` gets Create + Start() time.
std::unique_ptr<ms::SliceServer> StartServer(const Config& cfg,
                                             double* setup_s) {
  std::vector<std::unique_ptr<ms::Module>> replicas;
  for (int i = 0; i < cfg.replicas; ++i) {
    std::unique_ptr<ms::Module> m = BuildVgg13();
    if (i > 0) {
      OrDie(ms::CopyParams(replicas.front().get(), m.get()), "CopyParams");
    }
    replicas.push_back(std::move(m));
  }
  ms::ServerOptions opts;
  opts.serving.latency_budget = cfg.budget_s;
  opts.serving.lattice = ms::SliceConfig::Make(0.25, 0.25).MoveValueOrDie();
  opts.max_queue = cfg.max_queue;
  opts.sample_shape = {3, 12, 12};
  opts.decision_log_capacity = 1 << 20;
  const Clock::time_point t0 = Clock::now();
  auto server =
      ms::SliceServer::Create(std::move(replicas), opts).MoveValueOrDie();
  OrDie(server->Start(), "SliceServer::Start");
  *setup_s = SecondsSince(t0);
  return server;
}

/// What one pass measured, reduced from its per-request slots.
struct Pass {
  int64_t n = 0, accepted = 0, served = 0, shed = 0, expired = 0,
          rejected = 0, failed = 0, ontime = 0, late = 0, bad_callbacks = 0;
  double ontime_rate_sum = 0.0;
  std::vector<double> latency_ms, lag_s, submit_us;
  std::map<double, int64_t> served_at_rate;
  ms::ServerStats stats;

  double ontime_frac() const {
    return static_cast<double>(ontime) / static_cast<double>(n);
  }
  double mean_rate() const {
    return ontime_rate_sum / static_cast<double>(std::max<int64_t>(1, ontime));
  }
};

/// Sends `due` open-loop into a started server, waits for every accepted
/// request to settle, then stops the server.
Pass RunPass(ms::SliceServer* server, const std::vector<double>& due,
             const Config& cfg, bool traced) {
  Pass p;
  p.n = static_cast<int64_t>(due.size());
  auto slots = std::make_unique<Slot[]>(due.size());
  std::atomic<int64_t> settled{0};
  int64_t accepted = 0;
  if (traced) p.submit_us.reserve(due.size());
  const auto deadline = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(cfg.deadline_s));
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  p.lag_s = RunOpenLoop(start, due, [&](size_t i, Clock::time_point at) {
    Slot* s = &slots[i];
    s->due = at;
    const Clock::time_point t0 = Clock::now();
    // The deadline is fixed by the due time, so generator lag eats into it.
    const double remaining = std::max(1e-6, Seconds(at + deadline - t0));
    s->admit = server->Submit(
        remaining, [s, &settled](RequestOutcome o, double rate) {
          s->outcome = o;
          s->rate = rate;
          s->done = Clock::now();
          s->calls.fetch_add(1, std::memory_order_release);
          settled.fetch_add(1, std::memory_order_release);
        });
    const Clock::time_point t1 = Clock::now();
    if (s->admit == AdmitResult::kAccepted) ++accepted;
    if (traced) p.submit_us.push_back(Seconds(t1 - t0) * 1e6);
  });
  // Let queued work finish before Stop(), which would shed it.
  const Clock::time_point give_up =
      Clock::now() + deadline * 2 + std::chrono::seconds(2);
  while (settled.load(std::memory_order_acquire) < accepted &&
         Clock::now() < give_up) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server->Stop();
  p.stats = server->stats();

  p.latency_ms.reserve(due.size());
  for (size_t i = 0; i < due.size(); ++i) {
    const Slot& s = slots[i];
    const int calls = s.calls.load(std::memory_order_acquire);
    if (s.admit != AdmitResult::kAccepted) {
      if (calls != 0) ++p.bad_callbacks;
      if (s.admit == AdmitResult::kShedQueueFull) {
        ++p.shed;
      } else {
        ++p.rejected;
      }
      continue;  // refused at admission: no callback, no latency sample
    }
    ++p.accepted;
    if (calls != 1) {
      ++p.bad_callbacks;
      continue;
    }
    switch (s.outcome) {
      case RequestOutcome::kServed:
        ++p.served;
        ++p.served_at_rate[s.rate];
        if (s.done - s.due <= deadline) {
          ++p.ontime;
          p.ontime_rate_sum += s.rate;
        } else {
          ++p.late;
        }
        break;
      case RequestOutcome::kExpired: ++p.expired; break;
      case RequestOutcome::kShedStop: ++p.shed; break;
      case RequestOutcome::kFailed: ++p.failed; break;
    }
    p.latency_ms.push_back(Seconds(s.done - s.due) * 1e3);
  }
  return p;
}

void CheckAccounting(const Pass& p, const std::string& name, Report* r) {
  const ms::ServerStats& st = p.stats;
  r->Check(p.bad_callbacks == 0,
           name + ": " + std::to_string(p.bad_callbacks) +
               " requests without exactly one terminal callback");
  r->Check(st.submitted == p.n && st.accepted == p.accepted &&
               st.served == p.served && st.shed == p.shed &&
               st.expired == p.expired && st.rejected == p.rejected &&
               st.failed == p.failed,
           name + ": benchmark tally differs from ServerStats");
  r->Check(st.submitted ==
               st.served + st.shed + st.expired + st.rejected + st.failed,
           name + ": ServerStats violates submitted == served + shed + "
                  "expired + rejected + failed");
  r->AddAttempted(p.n);
  r->AddFailed(p.rejected + p.failed);
}

/// Per-pass end-to-end values, reduced over passes at the end of the run.
struct Series {
  std::vector<double> ontime_frac, p50, p99, mean_rate;
  int64_t requests = 0, ontime = 0;

  void Add(const Pass& p) {
    ontime_frac.push_back(p.ontime_frac());
    p50.push_back(Quantile(p.latency_ms, 0.50));
    p99.push_back(Quantile(p.latency_ms, 0.99));
    mean_rate.push_back(p.mean_rate());
    requests += p.n;
    ontime += p.ontime;
  }
};

/// Traced-pass observations pooled over the run.
struct TracedPool {
  int64_t served = 0, late = 0, shed = 0, expired = 0, rejected = 0,
          failed = 0, requests = 0;
  std::map<double, int64_t> served_at_rate;
  std::vector<double> submit_us, batch_n, batch_fwd_ms, queue_wait_ms,
      forward_ms;
  std::map<double, std::vector<double>> cost_ratio;
};

}  // namespace

int RunSpike(const ms::Flags& flags) {
  Report report("spike");
  const uint64_t seed = static_cast<uint64_t>(FlagInt(flags, "seed"));
  const double seconds = FlagValue(flags, "seconds");
  const int passes =
      std::max<int>(1, static_cast<int>(FlagInt(flags, "passes")));
  const bool trace = FlagInt(flags, "trace") != 0;
  Config cfg;
  cfg.shape.base_rps = FlagValue(flags, "base_rps");
  cfg.shape.tick_s = FlagValue(flags, "tick_ms") / 1e3;
  cfg.shape.peak_mult = FlagValue(flags, "peak_mult");
  cfg.shape.peak_begin = FlagValue(flags, "peak_begin");
  cfg.shape.peak_end = FlagValue(flags, "peak_end");
  cfg.shape.spike_prob = FlagValue(flags, "spike_prob");
  cfg.shape.spike_mult = FlagValue(flags, "spike_mult");
  cfg.budget_s = FlagValue(flags, "budget_ms") / 1e3;
  cfg.deadline_s = FlagValue(flags, "deadline_ms") / 1e3;
  cfg.replicas = static_cast<int>(FlagInt(flags, "replicas"));
  cfg.max_queue = FlagInt(flags, "max_queue");
  ms::ops::SetComputeThreads(1);

  Series clean, traced;
  TracedPool pool;
  std::vector<double> calibrated_t_us, lag_s;
  uint64_t packs = 0, slab_allocs = 0;  ///< over the untraced serving windows
  for (int pass = 0; pass < passes; ++pass) {
    const std::vector<double> due = SpikeArrivals(
        cfg.shape, seconds / passes, seed, static_cast<uint64_t>(pass));
    double setup_s = 0.0;
    std::unique_ptr<ms::SliceServer> server = StartServer(cfg, &setup_s);
    report.AddSetup(setup_s);
    calibrated_t_us.push_back(server->calibrated_sample_seconds() * 1e6);
    const ms::ops::PackStats packs0 = ms::ops::GetPackStats();
    const uint64_t slabs0 = ms::ArenaCore::TotalSlabAllocs();
    const Pass p = RunPass(server.get(), due, cfg, /*traced=*/false);
    packs += ms::ops::GetPackStats().packs - packs0.packs;
    slab_allocs += ms::ArenaCore::TotalSlabAllocs() - slabs0;
    CheckAccounting(p, "untraced pass " + std::to_string(pass), &report);
    clean.Add(p);
    lag_s.insert(lag_s.end(), p.lag_s.begin(), p.lag_s.end());
    if (!trace) continue;

    // Traced twin: same arrivals, fresh server, stage stamps on.
    server.reset();
    server = StartServer(cfg, &setup_s);
    ms::obs::RequestTraceLog& log = ms::obs::RequestTraceLog::Global();
    ms::obs::EnableStageStats(true);
    log.Enable(due.size() + 1024);
    const Pass t = RunPass(server.get(), due, cfg, /*traced=*/true);
    ms::obs::EnableStageStats(false);
    CheckAccounting(t, "traced pass " + std::to_string(pass), &report);
    traced.Add(t);
    lag_s.insert(lag_s.end(), t.lag_s.begin(), t.lag_s.end());

    pool.requests += t.n;
    pool.served += t.served;
    pool.late += t.late;
    pool.shed += t.stats.shed;
    pool.expired += t.stats.expired;
    pool.rejected += t.stats.rejected;
    pool.failed += t.stats.failed;
    for (const auto& [rate, count] : t.served_at_rate) {
      pool.served_at_rate[rate] += count;
    }
    pool.submit_us.insert(pool.submit_us.end(), t.submit_us.begin(),
                          t.submit_us.end());
    for (const ms::DecisionRecord& d : server->decision_log().Snapshot()) {
      pool.batch_n.push_back(static_cast<double>(d.n));
      if (d.achieved_seconds <= 0.0 || d.predicted_seconds <= 0.0) continue;
      pool.batch_fwd_ms.push_back(d.achieved_seconds * 1e3);
      pool.cost_ratio[d.chosen_rate].push_back(d.achieved_seconds /
                                               d.predicted_seconds);
    }
    int64_t stamped = 0;
    for (const ms::obs::RequestTimeline& tl : log.Snapshot()) {
      if (std::string(tl.outcome) != "served" || tl.fwd_done_ns == 0) continue;
      ++stamped;
      pool.queue_wait_ms.push_back(
          static_cast<double>(tl.cut_ns - tl.admit_ns) / 1e6);
      pool.forward_ms.push_back(
          static_cast<double>(tl.fwd_done_ns - tl.fwd_start_ns) / 1e6);
    }
    log.Disable();
    log.Clear();
    report.Check(stamped == t.served,
                 "stage stamps cover " + std::to_string(stamped) + " of " +
                     std::to_string(t.served) + " served requests");
  }

  report.Metric("ontime_frac",
                BetterQuantile(clean.ontime_frac, kPassQuantile, true),
                clean.requests);
  report.Metric("latency_p50_ms",
                BetterQuantile(clean.p50, kPassQuantile, false),
                clean.requests);
  report.Metric("latency_p99_ms",
                BetterQuantile(clean.p99, kPassQuantile, false),
                clean.requests);
  report.Metric("mean_rate", Median(clean.mean_rate), clean.ontime);
  report.Metric("ontime_frac.pass_median", Median(clean.ontime_frac),
                clean.requests);
  report.Metric("latency_p50_ms.pass_median", Median(clean.p50),
                clean.requests);
  report.Metric("latency_p99_ms.pass_median", Median(clean.p99),
                clean.requests);
  report.Metric("serving.calibrated_t_us", Median(calibrated_t_us), passes);
  const int64_t sends = static_cast<int64_t>(lag_s.size());
  report.Metric("loadgen.lag_ms.p99", Quantile(lag_s, 0.99) * 1e3, sends);
  report.Metric("loadgen.lag_ms.max", Max(lag_s) * 1e3, sends);
  if (!trace) {
    report.Print();
    return report.ok() ? 0 : 1;
  }

  // ---- per-layer metrics from the traced passes -------------------------
  const int64_t n = pool.requests;
  report.Metric("tensor.packs", static_cast<double>(packs), clean.requests);
  report.Metric("tensor.arena_slab_allocs", static_cast<double>(slab_allocs),
                clean.requests);
  report.Metric("trace.overhead.spike.latency_p50_ms",
                BetterQuantile(traced.p50, kPassQuantile, false) -
                    BetterQuantile(clean.p50, kPassQuantile, false),
                n);
  report.Metric("trace.overhead.spike.latency_p99_ms",
                BetterQuantile(traced.p99, kPassQuantile, false) -
                    BetterQuantile(clean.p99, kPassQuantile, false),
                n);
  report.Metric("trace.overhead.spike.ontime_frac",
                BetterQuantile(traced.ontime_frac, kPassQuantile, true) -
                    BetterQuantile(clean.ontime_frac, kPassQuantile, true),
                n);
  const double served = static_cast<double>(std::max<int64_t>(1, pool.served));
  report.Metric("serving.late_frac", static_cast<double>(pool.late) / served,
                pool.served);
  report.Metric("serving.shed", static_cast<double>(pool.shed), n);
  report.Metric("serving.expired", static_cast<double>(pool.expired), n);
  report.Metric("serving.rejected", static_cast<double>(pool.rejected), n);
  report.Metric("serving.failed", static_cast<double>(pool.failed), n);
  report.Metric("serving.submit_us.p50", Quantile(pool.submit_us, 0.50), n);
  report.Metric("serving.submit_us.p99", Quantile(pool.submit_us, 0.99), n);
  for (const auto& [tag, rate] : kLattice) {
    const auto it = pool.served_at_rate.find(rate);
    const int64_t at = it == pool.served_at_rate.end() ? 0 : it->second;
    report.Metric("serving.rate_share." + tag,
                  static_cast<double>(at) / served, pool.served);
    // Achieved / predicted forward cost per chosen rate, from the decision
    // log. A rate the scheduler never chose has no ratio; 0 marks it.
    const auto r = pool.cost_ratio.find(rate);
    const bool used = r != pool.cost_ratio.end();
    report.Metric("serving.cost_ratio." + tag, used ? Median(r->second) : 0.0,
                  used ? static_cast<int64_t>(r->second.size()) : 0);
  }
  const int64_t batches = static_cast<int64_t>(pool.batch_n.size());
  report.Metric("serving.batch_n.p50", Quantile(pool.batch_n, 0.50), batches);
  report.Metric("serving.batch_n.max", Max(pool.batch_n), batches);
  const int64_t settled = static_cast<int64_t>(pool.batch_fwd_ms.size());
  report.Metric("serving.batch_fwd_ms.p50", Quantile(pool.batch_fwd_ms, 0.50),
                settled);
  report.Metric("serving.batch_fwd_ms.p99", Quantile(pool.batch_fwd_ms, 0.99),
                settled);
  // Stage stamps of every served request (queue wait = admit -> cut).
  const int64_t stamped = static_cast<int64_t>(pool.queue_wait_ms.size());
  report.Metric("serving.stage.queue_wait_ms.p50",
                Quantile(pool.queue_wait_ms, 0.50), stamped);
  report.Metric("serving.stage.queue_wait_ms.p99",
                Quantile(pool.queue_wait_ms, 0.99), stamped);
  report.Metric("serving.stage.forward_ms.p50", Quantile(pool.forward_ms, 0.50),
                stamped);
  report.Metric("serving.stage.forward_ms.p99", Quantile(pool.forward_ms, 0.99),
                stamped);
  report.Print();
  return report.ok() ? 0 : 1;
}

}  // namespace perfbench
