#include "inproc.hpp"

#include <algorithm>

#include "common/rng.hpp"
#include "engine/datasets.hpp"
#include "partition/partitioner.hpp"

namespace enginebench {

using ppr::Cluster;
using ppr::NodeId;

Deployment set_up_inproc(const std::string& dataset, double scale,
                         const ppr::ClusterOptions& options, int repeats,
                         SetupTimes& times) {
  Deployment d;
  for (int i = 0; i < repeats; ++i) {
    d.cluster.reset();
    d.graph = ppr::Graph();
    const auto t0 = Clock::now();
    // An empty cache directory makes the dataset layer generate in memory.
    d.graph = ppr::load_or_generate(ppr::dataset_spec(dataset), "", scale);
    const auto t1 = Clock::now();
    const ppr::PartitionAssignment part =
        ppr::partition_multilevel(d.graph, options.num_machines);
    const auto t2 = Clock::now();
    d.cluster = std::make_unique<Cluster>(d.graph, part, options);
    const auto t3 = Clock::now();
    times.generate_s.push_back(seconds_between(t0, t1));
    times.partition_s.push_back(seconds_between(t1, t2));
    times.start_s.push_back(seconds_between(t2, t3));
    times.boot_s.push_back(0.0);
    times.total_s.push_back(seconds_between(t0, t3));
  }
  return d;
}

std::vector<NodeId> shard_core_counts(Cluster& cluster) {
  std::vector<NodeId> counts;
  for (int m = 0; m < cluster.num_machines(); ++m) {
    counts.push_back(cluster.shard(m).num_core_nodes());
  }
  return counts;
}

void fill_registry_layers(const ppr::obs::MetricsSnapshot& before,
                          const ppr::obs::MetricsSnapshot& after,
                          double queries, RunResult& r) {
  const auto d = [&](const char* name) {
    return counter_delta(before, after, name);
  };
  const auto per_query = [&](double v) { return share(v, queries); };
  const double rows = d("pipeline.rows_requested");
  r.layer["storage.rows_per_query"] = per_query(rows);
  r.layer["storage.rows_local_share"] = share(d("pipeline.rows_local"), rows);
  r.layer["storage.rows_halo_share"] = share(d("pipeline.rows_halo"), rows);
  r.layer["storage.rows_cached_share"] =
      share(d("pipeline.rows_cached"), rows);
  r.layer["storage.rows_wire_share"] = share(d("pipeline.rows_wire"), rows);
  const double hits = d("storage.adjacency_cache.hits");
  r.layer["storage.adj_cache_hit_rate"] =
      share(hits, hits + d("storage.adjacency_cache.misses"));
  r.layer["storage.adj_cache_evictions_per_query"] =
      per_query(d("storage.adjacency_cache.evictions"));
  r.layer["storage.rpcs_per_query"] = per_query(d("pipeline.rpcs_issued"));
  r.layer["storage.version_invalidations_per_query"] =
      per_query(d("cache.version_invalidations"));
  r.layer["rpc.calls_per_query"] = per_query(d("storage.fetch.remote_calls"));
  r.layer["rpc.request_bytes_per_query"] =
      per_query(d("storage.fetch.remote_request_bytes"));
  r.layer["rpc.response_bytes_per_query"] =
      per_query(d("storage.fetch.remote_response_bytes"));
  r.layer["rpc.buffer_reuse_share"] =
      share(d("rpc.buffer_pool.reused"), d("rpc.buffer_pool.acquired"));
  r.layer["rpc.retries"] = d("rpc.retries");
  r.layer["cluster.stale_epoch_hits"] = d("routing.stale_epoch_hits");
  r.layer["ppr.kernel_promotions_per_query"] =
      per_query(d("ssppr.kernel_promotions"));
}

void fill_phase_layers(const ppr::PhaseTimers& timers, double busy_s,
                       double queries, RunResult& r) {
  using ppr::Phase;
  const auto ms_per_query = [&](Phase p) {
    return share(timers.seconds(p) * 1e3, queries);
  };
  r.layer["engine.attrib_residual_share"] =
      1.0 - share(timers.total_seconds(), busy_s);
  r.layer["ppr.pop_ms_per_query"] = ms_per_query(Phase::kPop);
  r.layer["ppr.push_ms_per_query"] = ms_per_query(Phase::kPush);
  r.layer["storage.local_fetch_ms_per_query"] =
      ms_per_query(Phase::kLocalFetch);
  r.layer["storage.remote_fetch_ms_per_query"] =
      ms_per_query(Phase::kRemoteFetch);
}

double fetch_call_us_p50(Cluster& cluster, std::uint64_t seed) {
  constexpr int kRows = 64;
  constexpr int kCalls = 200;
  const ppr::ShardId dst = 1;
  const NodeId core = cluster.shard(dst).num_core_nodes();
  ppr::Rng rng(seed ^ 0x3c6ef372fe94f82bULL);
  std::vector<NodeId> locals;
  for (int i = 0; i < kRows; ++i) {
    locals.push_back(static_cast<NodeId>(
        rng.next_u64(static_cast<std::uint64_t>(core))));
  }
  std::sort(locals.begin(), locals.end());
  locals.erase(std::unique(locals.begin(), locals.end()), locals.end());
  ppr::DistGraphStorage& storage = cluster.storage(0);
  std::vector<double> us;
  for (int i = 0; i < kCalls; ++i) {
    const auto t0 = Clock::now();
    try {
      ppr::obs::ScopedSpan span("bench.get_neighbor_infos_async");
      const ppr::NeighborBatch batch =
          storage.get_neighbor_infos_async(dst, locals).wait();
    } catch (const std::exception&) {
      continue;  // a failed fetch has no latency; the median skips it
    }
    us.push_back(seconds_between(t0, Clock::now()) * 1e6);
  }
  return median(us);
}

void fill_obs_layers(double untraced_rate, double traced_rate,
                     double queries, RunResult& r) {
  const auto& tracer = ppr::obs::Tracer::global();
  r.layer["obs.trace_overhead_share"] =
      untraced_rate > 0 ? 1.0 - traced_rate / untraced_rate : 0.0;
  r.layer["obs.spans_per_query"] = share(
      static_cast<double>(tracer.spans().size() + tracer.dropped()), queries);
}

}  // namespace enginebench
