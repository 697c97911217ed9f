// offline_batch: the paper's Table 2 setting. products-sim at full
// replica scale on 4 machines x 1 computing process, each running
// closed-loop lockstep batches of 16 uniform-source queries through
// run_ssppr_batch at eps = 1e-6. Compute-bound: pop and push dominate, so
// the ppr kernel and thread scaling show here and the serve layer is
// absent.
#include <cstdio>
#include <mutex>
#include <thread>

#include "checks.hpp"
#include "common.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "engine/ssppr_batch.hpp"
#include "engine/state_pool.hpp"
#include "inproc.hpp"

namespace enginebench {
namespace {

using namespace ppr;

constexpr int kMachines = 4;
constexpr std::size_t kBatch = 16;
constexpr int kSetups = 5;
constexpr double kWarmupS = 2.0;
// Fixed per-query latency limit (the batch call time). The p99 measured
// on a 4-thread x86 VM ranged from 128 to 222 ms with the host's load;
// well above that, slo_share moves on overload and failures rather than
// on host noise.
constexpr double kSloLimitMs = 300.0;

struct Window {
  Latencies lat;  // per query, completions in the window
  std::uint64_t attempted = 0, failed = 0;
  // Every batch the phase ran, including the ones still in flight when
  // the window closed (attribution needs the whole of each batch).
  double busy_s = 0;
  std::uint64_t queries_run = 0, pushes = 0;
};

Window run_window(Cluster& cluster,
                  std::vector<std::unique_ptr<SspprStatePool>>& pools,
                  std::vector<Rng>& rngs, double seconds,
                  PhaseTimers* timers) {
  Window w;
  std::mutex mu;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int m = 0; m < kMachines; ++m) {
    threads.emplace_back([&, m] {
      const auto shard = static_cast<ShardId>(m);
      const auto core =
          static_cast<std::uint64_t>(cluster.shard(m).num_core_nodes());
      Rng& rng = rngs[static_cast<std::size_t>(m)];
      Window local;
      std::vector<NodeRef> refs(kBatch);
      while (Clock::now() < end) {
        for (NodeRef& ref : refs) {
          ref = NodeRef{static_cast<NodeId>(rng.next_u64(core)), shard};
        }
        bool ok = true;
        const auto t0 = Clock::now();
        try {
          SspprStatePool::Lease lease =
              pools[static_cast<std::size_t>(m)]->acquire(refs);
          obs::ScopedSpan span("bench.run_ssppr_batch");
          local.pushes += run_ssppr_batch(cluster.storage(m), lease.states(),
                                          DriverOptions{}, timers)
                              .num_pushes;
        } catch (const std::exception& e) {
          ok = false;
          std::fprintf(stderr, "offline_batch: batch failed: %s\n",
                       e.what());
        }
        const auto t1 = Clock::now();
        local.busy_s += seconds_between(t0, t1);
        local.queries_run += kBatch;
        if (t1 >= end) break;
        local.attempted += kBatch;
        if (!ok) {
          local.failed += kBatch;
          continue;
        }
        const double ms = seconds_between(t0, t1) * 1e3;
        for (std::size_t i = 0; i < kBatch; ++i) {
          local.lat.add(ms, seconds_between(start, t1));
        }
      }
      std::lock_guard<std::mutex> lock(mu);
      w.lat.lat_ms.insert(w.lat.lat_ms.end(), local.lat.lat_ms.begin(),
                          local.lat.lat_ms.end());
      w.lat.at_s.insert(w.lat.at_s.end(), local.lat.at_s.begin(),
                        local.lat.at_s.end());
      w.attempted += local.attempted;
      w.failed += local.failed;
      w.busy_s += local.busy_s;
      w.queries_run += local.queries_run;
      w.pushes += local.pushes;
    });
  }
  for (auto& t : threads) t.join();
  return w;
}

/// Batch answers must be bit-identical to each query run alone, and a
/// sample of them must meet the paper's guarantees.
void check_answers(const Deployment& d, const SspprOptions& ppr,
                   std::uint64_t seed, RunResult& r) {
  Cluster& cluster = *d.cluster;
  Rng rng(seed ^ 0x6a09e667f3bcc908ULL);
  std::vector<double> precisions;
  for (int m = 0; m < kMachines; ++m) {
    const auto core =
        static_cast<std::uint64_t>(cluster.shard(m).num_core_nodes());
    std::vector<SspprState> states;
    for (std::size_t i = 0; i < kBatch; ++i) {
      states.emplace_back(
          NodeRef{static_cast<NodeId>(rng.next_u64(core)), ShardId(m)}, ppr);
    }
    run_ssppr_batch(cluster.storage(m), states, DriverOptions{});
    for (std::size_t i = 0; i < states.size(); ++i) {
      const SspprState alone =
          compute_ssppr(cluster.storage(m), states[i].source(), ppr);
      check_identical(to_answer(states[i], cluster.mapping()),
                      to_answer(alone, cluster.mapping()),
                      "batch vs alone", r);
    }
    check_guarantees(states[0], d.graph, cluster.mapping(), r);
    precisions.push_back(
        top100_precision(states[0], d.graph, cluster.mapping()));
  }
  check_mean_precision(precisions, "batch answers", r);
}

}  // namespace

RunResult run_offline_batch(const RunArgs& args) {
  RunResult r;
  ClusterOptions options;
  options.num_machines = kMachines;
  options.network = NetworkModel{};
  SetupTimes times;
  Deployment d =
      set_up_inproc("products-sim", 1.0, options, kSetups, times);
  report_setup(times, r);
  Cluster& cluster = *d.cluster;

  SspprOptions ppr;
  ppr.alpha = 0.462;
  ppr.epsilon = 1e-6;
  ppr.shard_core_counts = shard_core_counts(cluster);
  std::vector<std::unique_ptr<SspprStatePool>> pools;
  std::vector<Rng> rngs;
  for (int m = 0; m < kMachines; ++m) {
    pools.push_back(std::make_unique<SspprStatePool>(ppr));
    rngs.emplace_back(args.seed * 0x9e3779b97f4a7c15ULL + 17 + m);
  }

  run_window(cluster, pools, rngs, kWarmupS, nullptr);
  const Window w = run_window(cluster, pools, rngs, args.seconds, nullptr);
  r.attempted = w.attempted;
  r.failed = w.failed;
  const Quartiles qq = per_second_rates(w.lat.at_s, args.seconds);
  const double qps =
      share(static_cast<double>(w.lat.lat_ms.size()), args.seconds);
  r.e2e["qps"] = qps;
  report_latency(w.lat, args.seconds, w.attempted, kSloLimitMs, r);

  if (args.trace) {
    PhaseTimers timers;
    const auto before = obs::MetricRegistry::global().snapshot();
    set_tracing(true);
    const Window t = run_window(cluster, pools, rngs, args.seconds, &timers);
    const double traced_qps =
        share(static_cast<double>(t.lat.lat_ms.size()), args.seconds);
    set_tracing(false);
    const auto after = obs::MetricRegistry::global().snapshot();
    const double q = static_cast<double>(t.queries_run);
    fill_registry_layers(before, after, q, r);
    fill_obs_layers(qps, traced_qps, q, r);
    std::vector<double> batch_ms;
    for (const double ms :
         span_ms(obs::Tracer::global().spans(), "bench.run_ssppr_batch")) {
      batch_ms.insert(batch_ms.end(), kBatch, ms);  // one sample per query
    }
    r.layer["engine.batch_ms_p50"] = median(batch_ms);
    r.layer["engine.batch_ms_p99"] = tail(batch_ms, 0.99).value_or(0.0);
    r.layer["engine.rounds_per_query"] =
        share(counter_delta(before, after, "engine.ssppr.batch_rounds"), q);
    r.layer["engine.pushes_per_query"] =
        share(static_cast<double>(t.pushes), q);
    fill_phase_layers(timers, t.busy_s, q, r);
    r.layer["storage.fetch_call_us_p50"] =
        fetch_call_us_p50(cluster, args.seed);
  }

  check_answers(d, ppr, args.seed, r);
  r.e2e["rss_mb"] = peak_rss_mb();
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{\"windows\": %zu, \"q1\": %.3f, \"median\": %.3f, "
                "\"q3\": %.3f}",
                qq.n, qq.q1, qq.median, qq.q3);
  r.record["qps_per_second_windows"] = buf;
  r.record["remote_ratio"] = std::to_string(cluster.remote_ratio());
  return r;
}

}  // namespace enginebench
