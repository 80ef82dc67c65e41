// wire phase: an open loop from one client connection through msrouter to
// `mscli serve --listen` shards, which run.py has spawned. Each request
// carries a real, seeded input tensor. The load is a steady Poisson stream
// at a fixed requests/s. The phase runs only in the traced run: every
// untraced pass is followed by a traced twin on the same arrivals, and the
// per-layer metrics come from the traced passes.
//
// Latency runs from each request's due time to its reply; a request refused
// at admission has no latency sample (it counts as a miss, as in the spike
// phase).
//
// Checks: exactly one reply per request id, no duplicates and no unknown
// ids, and the client's tally equals the router's ledger over the pass.
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/loadgen.h"
#include "src/net/client.h"
#include "src/net/wire.h"

namespace perfbench {
namespace {

using ms::AdmitResult;
using ms::RequestOutcome;
using ms::net::ReplyMsg;
using ms::net::RequestMsg;
using ms::net::StatsMsg;

constexpr int kPayloadPool = 64;
constexpr int64_t kSampleFloats = 3 * 12 * 12;  // vgg13's input.

struct Slot {
  std::atomic<int> calls{0};         ///< replies delivered for this id.
  std::atomic<bool> recorded{false};  ///< reply/done below are written.
  ReplyMsg reply;
  Clock::time_point due;
  Clock::time_point done;
};

/// Requests of all passes share one slot array indexed by id - 1, so the
/// reader thread needs no lookup structure.
struct Ledger {
  std::unique_ptr<Slot[]> slots;
  int64_t size = 0;
  std::atomic<int64_t> replies{0};
  std::atomic<int64_t> unknown_ids{0};
};

struct PassResult {
  int64_t n = 0, served = 0, shed = 0, expired = 0, rejected = 0, failed = 0,
          missing = 0, duplicates = 0, ontime = 0;
  double ontime_rate_sum = 0.0;
  std::vector<double> latency_ms, lag_s, send_us;
  StatsMsg before, after;
};

constexpr double kStatsTimeoutS = 2.0;
/// How long a pass waits for its last replies after its last send.
constexpr double kDrainSeconds = 3.0;

}  // namespace

int RunWire(const ms::Flags& flags) {
  Report report("wire");
  const uint16_t port = static_cast<uint16_t>(FlagInt(flags, "port"));
  const int shards = static_cast<int>(FlagInt(flags, "shards"));
  const uint64_t seed = static_cast<uint64_t>(FlagInt(flags, "seed"));
  const double seconds = FlagValue(flags, "seconds");
  const double rps = FlagValue(flags, "rps");
  const double deadline_s = FlagValue(flags, "deadline_ms") / 1e3;
  const int passes =
      std::max<int>(1, static_cast<int>(FlagInt(flags, "passes")));

  // The load is split into passes whose numbers are reported as medians, so
  // one contended second does not decide the run.
  struct Planned {
    std::vector<double> due;
    bool traced = false;
    int64_t id0 = 0;  ///< this pass's requests carry ids id0 + 1 .. id0 + n.
  };
  std::vector<Planned> plan;
  Ledger ledger;
  for (int p = 0; p < passes; ++p) {
    const std::vector<double> due =
        PoissonArrivals(rps, seconds / passes, seed, static_cast<uint64_t>(p));
    for (bool traced : {false, true}) {
      plan.push_back({due, traced, ledger.size});
      ledger.size += static_cast<int64_t>(due.size());
    }
  }
  ledger.slots = std::make_unique<Slot[]>(static_cast<size_t>(ledger.size));

  ms::net::WireClient client;
  client.set_on_reply([&ledger](const ReplyMsg& r) {
    const int64_t idx = static_cast<int64_t>(r.id) - 1;
    if (idx < 0 || idx >= ledger.size) {
      ledger.unknown_ids.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    Slot& s = ledger.slots[static_cast<size_t>(idx)];
    if (s.calls.fetch_add(1, std::memory_order_relaxed) == 0) {
      s.reply = r;
      s.done = Clock::now();
      s.recorded.store(true, std::memory_order_release);
      ledger.replies.fetch_add(1, std::memory_order_release);
    }
  });

  // Connect, then wait until the router has every shard live.
  const Clock::time_point give_up = Clock::now() + std::chrono::seconds(60);
  bool live = false;
  while (!live && Clock::now() < give_up) {
    if (!client.connected() && !client.Connect("127.0.0.1", port).ok()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      continue;
    }
    auto stats = client.RequestStats(kStatsTimeoutS);
    live = stats.ok() && stats.ValueOrDie().healthy_workers == shards;
    if (!live) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!live) {
    std::fprintf(stderr, "perfbench: router never reported %d live shards\n",
                 shards);
    return 1;
  }

  // Seeded input tensors; request i carries sample i mod kPayloadPool.
  std::vector<std::vector<float>> payloads(kPayloadPool);
  {
    std::mt19937_64 rng = MakeRng(seed, 3);
    std::normal_distribution<float> dist(0.0f, 1.0f);
    for (auto& p : payloads) {
      p.resize(kSampleFloats);
      for (float& v : p) v = dist(rng);
    }
  }

  const auto deadline = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(deadline_s));
  std::vector<PassResult> clean, traced;
  for (const Planned& pl : plan) {
    PassResult pr;
    pr.n = static_cast<int64_t>(pl.due.size());
    auto before = client.RequestStats(kStatsTimeoutS);
    if (!before.ok()) {
      report.Error("router stats poll failed before a pass");
      break;
    }
    pr.before = before.MoveValueOrDie();
    const int64_t replies0 = ledger.replies.load(std::memory_order_acquire);
    if (pl.traced) pr.send_us.reserve(pl.due.size());
    RequestMsg msg;
    const Clock::time_point start =
        Clock::now() + std::chrono::milliseconds(20);
    pr.lag_s = RunOpenLoop(start, pl.due, [&](size_t i, Clock::time_point at) {
      Slot& s = ledger.slots[static_cast<size_t>(pl.id0) + i];
      s.due = at;
      msg.id = static_cast<uint64_t>(pl.id0 + static_cast<int64_t>(i) + 1);
      const Clock::time_point t0 = Clock::now();
      msg.deadline_seconds = std::max(1e-6, Seconds(at + deadline - t0));
      msg.payload = payloads[i % kPayloadPool];
      const bool sent = client.SendRequest(msg).ok();
      if (pl.traced) pr.send_us.push_back(SecondsSince(t0) * 1e6);
      if (!sent) report.Error("send failed for request " + std::to_string(msg.id));
    });
    const Clock::time_point wait_end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kDrainSeconds));
    while (ledger.replies.load(std::memory_order_acquire) - replies0 < pr.n &&
           Clock::now() < wait_end) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    auto after = client.RequestStats(kStatsTimeoutS);
    if (!after.ok()) {
      report.Error("router stats poll failed after a pass");
      break;
    }
    pr.after = after.MoveValueOrDie();

    for (int64_t i = 0; i < pr.n; ++i) {
      const Slot& s = ledger.slots[static_cast<size_t>(pl.id0 + i)];
      if (!s.recorded.load(std::memory_order_acquire)) {
        ++pr.missing;
        continue;
      }
      pr.duplicates += s.calls.load(std::memory_order_relaxed) - 1;
      const ReplyMsg& r = s.reply;
      if (r.admit == AdmitResult::kShedQueueFull) {
        ++pr.shed;
        continue;
      }
      if (r.admit != AdmitResult::kAccepted) {
        ++pr.rejected;
        continue;
      }
      switch (r.outcome) {
        case RequestOutcome::kServed:
          ++pr.served;
          if (s.done - s.due <= deadline) {
            ++pr.ontime;
            pr.ontime_rate_sum += r.rate;
          }
          break;
        case RequestOutcome::kExpired: ++pr.expired; break;
        case RequestOutcome::kShedStop: ++pr.shed; break;
        case RequestOutcome::kFailed: ++pr.failed; break;
      }
      pr.latency_ms.push_back(Seconds(s.done - s.due) * 1e3);
    }
    const std::string name = pl.traced ? "traced pass" : "untraced pass";
    report.Check(pr.missing == 0, name + ": " + std::to_string(pr.missing) +
                                      " requests got no reply");
    report.Check(pr.duplicates == 0, name + ": " +
                                         std::to_string(pr.duplicates) +
                                         " duplicate replies");
    const StatsMsg& a = pr.after;
    const StatsMsg& b = pr.before;
    report.Check(a.submitted - b.submitted == pr.n &&
                     a.served - b.served == pr.served &&
                     a.shed - b.shed == pr.shed &&
                     a.expired - b.expired == pr.expired &&
                     a.rejected - b.rejected == pr.rejected &&
                     a.failed - b.failed == pr.failed,
                 name + ": client tally differs from the router's ledger");
    report.AddAttempted(pr.n);
    report.AddFailed(pr.rejected + pr.failed + pr.missing);
    (pl.traced ? traced : clean).push_back(std::move(pr));
  }
  report.Check(ledger.unknown_ids.load() == 0, "replies with unknown ids");
  if (!report.ok()) {
    report.Print();
    return 1;
  }

  auto median_of = [](const std::vector<PassResult>& rs, auto&& f) {
    std::vector<double> v;
    for (const PassResult& r : rs) v.push_back(f(r));
    return Median(v);
  };
  auto ontime_frac = [](const PassResult& r) {
    return static_cast<double>(r.ontime) / static_cast<double>(r.n);
  };
  auto p50 = [](const PassResult& r) { return Quantile(r.latency_ms, 0.50); };
  auto p99 = [](const PassResult& r) { return Quantile(r.latency_ms, 0.99); };
  auto mean_rate = [](const PassResult& r) {
    return r.ontime_rate_sum / static_cast<double>(std::max<int64_t>(1, r.ontime));
  };
  int64_t requests = 0, ontime = 0;
  std::vector<double> lag_s;
  for (const PassResult& r : clean) {
    requests += r.n;
    ontime += r.ontime;
    lag_s.insert(lag_s.end(), r.lag_s.begin(), r.lag_s.end());
  }
  report.Metric("ontime_frac", median_of(clean, ontime_frac), requests);
  report.Metric("latency_p50_ms", median_of(clean, p50), requests);
  report.Metric("latency_p99_ms", median_of(clean, p99), requests);
  report.Metric("mean_rate", median_of(clean, mean_rate), ontime);
  report.Metric("loadgen.lag_ms.p99", Quantile(lag_s, 0.99) * 1e3, requests);
  report.Metric("loadgen.lag_ms.max", Max(lag_s) * 1e3, requests);

  // ---- per-layer metrics from the traced passes -------------------------
  int64_t n = 0, timeouts = 0, failovers = 0, dup_replies = 0;
  std::vector<int64_t> forwarded;
  std::vector<double> send_us;
  for (const PassResult& r : traced) {
    n += r.n;
    timeouts += r.after.timeouts - r.before.timeouts;
    failovers += r.after.failovers - r.before.failovers;
    dup_replies += r.after.dup_replies - r.before.dup_replies;
    forwarded.resize(r.after.shards.size());
    for (size_t i = 0; i < r.after.shards.size() && i < r.before.shards.size();
         ++i) {
      forwarded[i] += r.after.shards[i].forwarded - r.before.shards[i].forwarded;
    }
    send_us.insert(send_us.end(), r.send_us.begin(), r.send_us.end());
  }
  report.Metric("trace.overhead.wire.latency_p50_ms",
                median_of(traced, p50) - median_of(clean, p50), n);
  report.Metric("trace.overhead.wire.latency_p99_ms",
                median_of(traced, p99) - median_of(clean, p99), n);
  report.Metric("trace.overhead.wire.ontime_frac",
                median_of(traced, ontime_frac) - median_of(clean, ontime_frac),
                n);
  report.Metric("net.client_send_us.p99", Quantile(send_us, 0.99), n);
  report.Metric("net.router.timeouts", static_cast<double>(timeouts), n);
  report.Metric("net.router.failovers", static_cast<double>(failovers), n);
  report.Metric("net.router.dup_replies", static_cast<double>(dup_replies), n);
  int64_t total = 0, most = 0;
  for (int64_t f : forwarded) {
    total += f;
    most = std::max(most, f);
  }
  report.Metric("net.shard_share.max",
                static_cast<double>(most) /
                    static_cast<double>(std::max<int64_t>(1, total)),
                total);

  // Codec cost on this workload's own messages: EncodeRequest, and
  // FrameDecoder reassembly plus DecodeRequest of the same frames.
  constexpr int kMsgs = 256;
  std::vector<RequestMsg> msgs(kMsgs);
  for (int i = 0; i < kMsgs; ++i) {
    msgs[i].id = static_cast<uint64_t>(i + 1);
    msgs[i].deadline_seconds = deadline_s;
    msgs[i].payload = payloads[static_cast<size_t>(i % kPayloadPool)];
  }
  std::vector<std::string> frames(kMsgs);
  std::vector<double> encode_us, decode_us;
  for (int round = 0; round < 200; ++round) {
    Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kMsgs; ++i) frames[i] = ms::net::EncodeRequest(msgs[i]);
    encode_us.push_back(SecondsSince(t0) * 1e6 / kMsgs);

    ms::net::FrameDecoder decoder;
    ms::net::Frame frame;
    RequestMsg parsed;
    int decoded = 0;
    t0 = Clock::now();
    for (int i = 0; i < kMsgs; ++i) {
      decoder.Feed(frames[i].data(), frames[i].size());
      if (decoder.Next(&frame) == ms::net::DecodeResult::kFrame &&
          ms::net::DecodeRequest(frame.payload, &parsed).ok() &&
          parsed.id == msgs[i].id) {
        ++decoded;
      }
    }
    decode_us.push_back(SecondsSince(t0) * 1e6 / kMsgs);
    if (decoded != kMsgs) {
      report.Error("codec round trip lost a request");
      break;
    }
  }
  report.Metric("net.encode_request_us", Median(encode_us),
                static_cast<int64_t>(encode_us.size()));
  report.Metric("net.decode_frame_us", Median(decode_us),
                static_cast<int64_t>(decode_us.size()));
  report.Metric("net.request_bytes", static_cast<double>(frames[0].size()), 1);
  ReplyMsg reply;
  reply.rate = 1.0f;
  report.Metric("net.reply_bytes",
                static_cast<double>(ms::net::EncodeReply(reply).size()), 1);
  report.Print();
  return report.ok() ? 0 : 1;
}

}  // namespace perfbench
