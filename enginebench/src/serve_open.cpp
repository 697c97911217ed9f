// serve_open: online serving at one fixed offered rate. twitter-sim at
// scale 0.25 (R-MAT, most rows remote) behind QueryService with
// micro-batching (max batch 16, 2 ms delay) and an adjacency cache far
// smaller than the graph. A single-thread open-loop Poisson generator
// sends Zipf-skewed sources, so batch members share rows. Queries are
// short (eps = 1e-5) and RPC-heavy: admission, batch formation, the fetch
// cache cascade and the wire carry the latency, not push work.
#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <mutex>
#include <thread>

#include "checks.hpp"
#include "common.hpp"
#include "engine/ssppr_driver.hpp"
#include "inproc.hpp"
#include "schedule.hpp"
#include "serve/service.hpp"

namespace enginebench {
namespace {

using namespace ppr;

constexpr int kMachines = 4;
constexpr int kSetups = 7;
constexpr double kWarmupS = 2.0;
constexpr double kZipfS = 1.0;
constexpr std::size_t kCacheRows = 2048;  // per machine; graph has 96k rows
constexpr double kDeadlineUs = 500'000;
constexpr int kChecked = 8;
// Offered rate, frozen at about a quarter of the saturation goodput
// (~3.7k queries/s) measured on a 4-thread x86 VM when the benchmark was
// defined. Two-thirds of saturation was bistable there, and at 1600 the
// per-machine message dispatchers (one sleeping thread each) saturated
// whenever the host slowed timer wakeups, multiplying p50 by up to five.
constexpr double kOfferedQps = 1000;
// Fixed p99 latency limit for slo_share, timed from the scheduled send.
// The p99 measured at the frozen rate on a 4-thread x86 VM ranged from
// 9 to 36 ms with the host's load; well above that, slo_share moves on
// overload and failures rather than on host noise.
constexpr double kSloLimitMs = 100.0;

struct Sent {
  double due_s = 0, sent_s = 0, submit_us = 0;
  serve::QueryFuture future;
};

struct Pass {
  Latencies lat;  // at_s = due time
  std::vector<double> late_ms, submit_us;
  std::vector<double> queue_wait_ms, execute_ms;
  std::uint64_t attempted = 0, failed = 0, rejected = 0, timed_out = 0;
};

/// Replay the arrivals due in [from_s, to_s) of `schedule` in real time
/// (shifted to start now) and collect every outcome.
Pass run_pass(serve::QueryService& service,
              const serve::ArrivalSchedule& schedule, double from_s,
              double to_s) {
  std::vector<double> at;
  std::vector<NodeId> sources;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (schedule.at_seconds[i] >= from_s && schedule.at_seconds[i] < to_s) {
      at.push_back(schedule.at_seconds[i] - from_s);
      sources.push_back(schedule.sources[i]);
    }
  }
  Pass p;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Sent> inflight;
  bool done = false;

  // Waits in send order; latency comes from the service's own e2e time
  // plus the send's lateness, so waiting order does not distort it.
  std::thread waiter([&] {
    for (;;) {
      Sent s;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return done || !inflight.empty(); });
        if (inflight.empty()) return;
        s = std::move(inflight.front());
        inflight.pop_front();
      }
      p.attempted += 1;
      p.submit_us.push_back(s.submit_us);
      serve::QueryResult res;
      try {
        res = s.future.wait();
      } catch (const std::exception&) {
        p.failed += 1;  // an errored query is failed, never fatal
        continue;
      }
      if (res.status != serve::QueryStatus::kOk) {
        p.failed += 1;
        p.rejected += res.status == serve::QueryStatus::kRejected ? 1 : 0;
        p.timed_out += res.status == serve::QueryStatus::kTimedOut ? 1 : 0;
        continue;
      }
      const double lat_s = (s.sent_s - s.due_s) + res.e2e_us * 1e-6;
      p.lat.add(lat_s * 1e3, s.due_s);
      p.queue_wait_ms.push_back(res.queue_wait_us * 1e-3);
      p.execute_ms.push_back(res.execute_us * 1e-3);
    }
  });

  const auto finish = [&] {
    {
      std::lock_guard<std::mutex> lock(mu);
      done = true;
      cv.notify_one();
    }
    waiter.join();
  };
  const auto start = Clock::now();
  const auto now_s = [&] { return seconds_between(start, Clock::now()); };
  std::vector<double> late;
  try {
    late = pace_open_loop(
        at, now_s,
        [&](double t) {
          std::this_thread::sleep_until(
              start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(t)));
        },
        [&](std::size_t i, double due, double sent) {
          Sent s;
          s.due_s = due;
          s.sent_s = sent;
          const auto t0 = Clock::now();
          {
            obs::ScopedSpan span("bench.submit");
            s.future = service.submit(sources[i]);
          }
          s.submit_us = seconds_between(t0, Clock::now()) * 1e6;
          std::lock_guard<std::mutex> lock(mu);
          inflight.push_back(std::move(s));
          cv.notify_one();
        },
        [] { return false; });
  } catch (...) {
    finish();  // never leave the waiter running
    throw;
  }
  finish();
  for (const double l : late) p.late_ms.push_back(l * 1e3);
  return p;
}

/// Service answers must be bit-identical to compute_ssppr, and a sample
/// must meet the paper's guarantees.
void check_answers(const Deployment& d, const serve::ServeOptions& base,
                   const serve::ArrivalSchedule& schedule, RunResult& r) {
  Cluster& cluster = *d.cluster;
  serve::ServeOptions opts = base;
  opts.collect_entries = true;
  opts.default_deadline_us = 0;
  serve::QueryService service(cluster, opts);
  for (int i = 0; i < kChecked && i < static_cast<int>(schedule.size()); ++i) {
    const NodeId source = schedule.sources[static_cast<std::size_t>(i)];
    const serve::QueryResult res = service.submit(source).wait();
    if (res.status != serve::QueryStatus::kOk) {
      r.fail_check("check query not served: " + std::to_string(source));
      continue;
    }
    const NodeRef ref = cluster.locate(source);
    const SspprState alone =
        compute_ssppr(cluster.storage(ref.shard), ref, opts.ppr, opts.driver);
    Answer got;
    for (const auto& [node, value] : res.ppr) {
      got.emplace_back(cluster.mapping().to_global(node), value);
    }
    std::sort(got.begin(), got.end());
    check_identical(got, to_answer(alone, cluster.mapping()),
                    "service vs compute_ssppr", r);
    // No precision check on twitter-sim: see README ("Answer checks").
    if (i < 2) check_guarantees(alone, d.graph, cluster.mapping(), r);
  }
}

}  // namespace

RunResult run_serve_open(const RunArgs& args) {
  RunResult r;
  ClusterOptions options;
  options.num_machines = kMachines;
  options.network = NetworkModel{};
  options.adjacency_cache_rows = kCacheRows;
  SetupTimes times;
  Deployment d = set_up_inproc("twitter-sim", 0.25, options, kSetups, times);
  report_setup(times, r);
  Cluster& cluster = *d.cluster;

  serve::ServeOptions sopts;
  sopts.max_batch_size = 16;
  sopts.max_batch_delay_us = 2000;
  sopts.default_deadline_us = kDeadlineUs;
  sopts.collect_entries = false;
  sopts.ppr.alpha = 0.462;
  sopts.ppr.epsilon = 1e-5;
  const serve::ArrivalSchedule schedule =
      make_open_loop_schedule(kOfferedQps, kWarmupS + args.seconds,
                              cluster.num_nodes(), kZipfS, args.seed);

  serve::QueryService service(cluster, sopts);
  run_pass(service, schedule, 0, kWarmupS);
  const Pass p = run_pass(service, schedule, kWarmupS,
                          kWarmupS + args.seconds);
  r.attempted = p.attempted;
  r.failed = p.failed;
  r.e2e["qps"] =
      share(static_cast<double>(p.lat.lat_ms.size()), args.seconds);
  report_latency(p.lat, args.seconds, p.attempted, kSloLimitMs, r);

  if (args.trace) {
    const auto before = obs::MetricRegistry::global().snapshot();
    set_tracing(true);
    const Pass t = run_pass(service, schedule, kWarmupS,
                            kWarmupS + args.seconds);
    set_tracing(false);
    const auto after = obs::MetricRegistry::global().snapshot();
    const double q = static_cast<double>(t.attempted);
    fill_registry_layers(before, after, q, r);
    fill_obs_layers(1.0 / r.e2e["lat_p50_ms"], 1.0 / median(t.lat.lat_ms),
                    q, r);
    r.layer["serve.submit_us_p50"] = median(t.submit_us);
    r.layer["serve.submit_us_p99"] = tail(t.submit_us, 0.99).value_or(0.0);
    r.layer["serve.queue_wait_ms_p50"] = median(t.queue_wait_ms);
    r.layer["serve.queue_wait_ms_p99"] =
        tail(t.queue_wait_ms, 0.99).value_or(0.0);
    r.layer["serve.execute_ms_p50"] = median(t.execute_ms);
    r.layer["serve.execute_ms_p99"] = tail(t.execute_ms, 0.99).value_or(0.0);
    r.layer["serve.batch_size_mean"] =
        share(counter_delta(before, after, "serve.batched_queries"),
              counter_delta(before, after, "serve.batches"));
    r.layer["serve.rejected_share"] =
        share(static_cast<double>(t.rejected), q);
    r.layer["serve.timed_out_share"] =
        share(static_cast<double>(t.timed_out), q);
    r.layer["serve.gen_late_ms_p99"] = tail(t.late_ms, 0.99).value_or(0.0);
    r.layer["storage.fetch_call_us_p50"] =
        fetch_call_us_p50(cluster, args.seed);
  }

  check_answers(d, sopts, schedule, r);
  r.e2e["rss_mb"] = peak_rss_mb();
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "{\"offered_qps\": %g, \"arrivals\": %llu, "
                "\"gen_late_ms_p99\": %.3f}",
                kOfferedQps, static_cast<unsigned long long>(p.attempted),
                tail(p.late_ms, 0.99).value_or(0.0));
  r.record["open_loop"] = buf;
  r.record["remote_ratio"] = std::to_string(cluster.remote_ratio());
  return r;
}

}  // namespace enginebench
