// ingest_mixed: reads beside writes on the versioned store. products-sim
// at scale 0.25; three closed-loop query threads run compute_ssppr
// (eps = 1e-5) while one writer lands the program's own mutation_stream
// batches (256 ops, 70% inserts) through Cluster::apply_edge_mutations,
// compacting one shard round-robin at fixed points of the write schedule.
// The only workload on the delta merge, snapshot pins, the mutation
// coordinator and cache version invalidation.
//
// Reads and writes run in rounds: in round b the writer lands batch b
// while the readers share a fixed list of queries pinned at the version
// batch b-1 published, and the next round starts when both are done. The
// rate of writes is set by the readers' speed (about 25 batches/s on a
// 4-thread x86 host), and every operation reads or writes one known
// version, so which operations fail is the same in every run of a seed.
//
// The stream is replayed exactly as mutation_stream produces it, the
// store's insert-then-delete defect with it. Every operation that throws
// (query, mutation batch, compaction) is counted as failed; none ends the
// run.
#include <algorithm>
#include <atomic>
#include <barrier>
#include <cmath>
#include <cstdio>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "checks.hpp"
#include "common.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "engine/ssppr_driver.hpp"
#include "graph/generators.hpp"
#include "inproc.hpp"

namespace enginebench {
namespace {

using namespace ppr;

constexpr int kMachines = 4;
constexpr int kSetups = 5;
constexpr int kReaders = 3;
constexpr int kOpsPerBatch = 256;
constexpr double kInsertFraction = 0.7;
// One batch lands per round while the readers run kQueriesPerRound
// queries. The window holds kRoundsPerS rounds per requested second (>=
// 200 batches in a 10 s window); about that many rounds take a second on
// a 4-thread x86 host.
constexpr int kQueriesPerRound = 24;
constexpr double kRoundsPerS = 25;
constexpr int kWarmupRounds = 50;
constexpr int kCompactEvery = 50;  // batches between compactions
// The write stream is the same in every run, the defect's batches with it
// (see README, "The ingest defect"); --seed picks the readers' sources.
constexpr std::uint64_t kStreamSeed = 17;
constexpr int kChecked = 3;
// Fixed per-query latency limit, about 1.5x the p99 measured on a
// 4-thread x86 host when the benchmark was defined.
constexpr double kSloLimitMs = 60.0;

struct Event {
  double at_s = 0;  // completion offset from the window's start
  double ms = 0;
  bool ok = true;
};

/// What the window's rounds saw (the warm-up rounds are left out).
struct Timeline {
  std::vector<Event> queries, mutations, compactions;
  double window_s = 0;
  double max_pins = 0;  // pinned snapshots after a batch, all shards
  std::uint64_t pushes = 0;
  double busy_s = 0;  // readers' time inside compute_ssppr
  std::vector<bool> batch_ok;  // every batch, the warm-up's too
  long first_failed_batch = -1;
  long first_failed_query_round = -1;
};

/// What the tracer and the registry saw over a traced pass's window.
struct Traced {
  PhaseTimers timers;
  obs::MetricsSnapshot before, after;
  std::vector<obs::SpanRecord> spans;
};

/// First batch holding a delete of an edge inserted earlier in the same
/// batch: MutationBatch applies deletes before inserts, so that delete
/// targets an edge the store does not have yet.
long first_insert_then_delete_batch(
    const std::vector<std::vector<EdgeMutationOp>>& stream) {
  for (std::size_t b = 0; b < stream.size(); ++b) {
    std::vector<std::pair<NodeId, NodeId>> inserted;
    for (const EdgeMutationOp& op : stream[b]) {
      const auto key = std::minmax(op.u, op.v);
      if (op.insert) {
        inserted.emplace_back(key.first, key.second);
      } else if (std::find(inserted.begin(), inserted.end(),
                           std::pair<NodeId, NodeId>(key.first,
                                                     key.second)) !=
                 inserted.end()) {
        return static_cast<long>(b);
      }
    }
  }
  return -1;
}

/// The undirected graph after the batches of `stream` that landed
/// (`landed[b]`): the single-machine reference for answers read after the
/// writes.
Graph materialize(const Graph& g,
                  const std::vector<std::vector<EdgeMutationOp>>& stream,
                  const std::vector<bool>& landed) {
  const auto key = [](NodeId u, NodeId v) {
    const auto [a, b] = std::minmax(u, v);
    return (static_cast<std::uint64_t>(a) << 32) |
           static_cast<std::uint32_t>(b);
  };
  std::unordered_map<std::uint64_t, std::vector<float>> live;
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const auto nbrs = g.neighbors(u);
    const auto weights = g.edge_weights(u);
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      if (u < nbrs[k]) live[key(u, nbrs[k])].push_back(weights[k]);
    }
  }
  for (std::size_t b = 0; b < stream.size(); ++b) {
    if (!landed[b]) continue;
    for (const EdgeMutationOp& op : stream[b]) {
      auto& ws = live[key(op.u, op.v)];
      if (op.insert) {
        ws.push_back(op.weight);
      } else if (!ws.empty()) {
        ws.pop_back();
      }
    }
  }
  std::vector<WeightedEdge> edges;
  for (const auto& [k, ws] : live) {
    for (const float w : ws) {
      edges.push_back({static_cast<NodeId>(k >> 32),
                       static_cast<NodeId>(k & 0xffffffffu), w});
    }
  }
  return Graph::from_edges(g.num_nodes(), edges, true);
}

/// One pass on a fresh deployment: batch 0 lands alone, then rounds
/// 1..stream.size()-1, the last `window_rounds` of them timed. `sources`
/// holds kQueriesPerRound query sources per round. With `traced`, the
/// tracer and the phase timers cover the window.
Timeline run_pass(Cluster& cluster,
                  const std::vector<std::vector<EdgeMutationOp>>& stream,
                  const std::vector<NodeId>& sources,
                  const SspprOptions& ppr, std::size_t window_rounds,
                  Traced* traced) {
  Timeline tr;
  std::mutex mu;
  // Round state, written by this thread between the two barrier phases.
  std::size_t round = 0;
  bool timed = false, done = false;
  DriverOptions pinned;
  std::atomic<int> next{0};
  Clock::time_point start;
  std::barrier<> sync(kReaders + 1);

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      while (true) {
        sync.arrive_and_wait();  // the round starts
        if (done) return;
        std::vector<Event> local;
        std::uint64_t pushes = 0;
        double busy = 0;
        bool failed = false;
        while (true) {
          const int i = next.fetch_add(1);
          if (i >= kQueriesPerRound) break;
          const NodeRef ref = cluster.locate(
              sources[round * kQueriesPerRound + static_cast<std::size_t>(i)]);
          const auto t0 = Clock::now();
          bool ok = true;
          try {
            obs::ScopedSpan span("bench.compute_ssppr");
            pushes += compute_ssppr(cluster.storage(ref.shard), ref, ppr,
                                    pinned,
                                    traced != nullptr && timed
                                        ? &traced->timers
                                        : nullptr)
                          .num_pushes();
          } catch (const std::exception&) {
            ok = false;
            failed = true;
          }
          const auto t1 = Clock::now();
          local.push_back({seconds_between(start, t1),
                           seconds_between(t0, t1) * 1e3, ok});
          busy += seconds_between(t0, t1);
        }
        if (timed) {
          std::lock_guard<std::mutex> lock(mu);
          tr.queries.insert(tr.queries.end(), local.begin(), local.end());
          tr.pushes += pushes;
          tr.busy_s += busy;
          if (failed && tr.first_failed_query_round < 0) {
            tr.first_failed_query_round = static_cast<long>(round);
          }
        }
        sync.arrive_and_wait();  // the round ends
      }
    });
  }

  // The writer's side of one round: land batch b, then compact if due.
  const auto write = [&](std::size_t b) {
    const auto t0 = Clock::now();
    bool ok = true;
    try {
      obs::ScopedSpan span("bench.apply_edge_mutations");
      cluster.apply_edge_mutations(stream[b]);
    } catch (const std::exception& e) {
      ok = false;
      if (tr.first_failed_batch < 0) {
        tr.first_failed_batch = static_cast<long>(b);
        std::fprintf(stderr, "ingest_mixed: batch %zu failed: %s\n", b,
                     e.what());
      }
    }
    const auto t1 = Clock::now();
    tr.batch_ok.push_back(ok);
    double pins = 0;
    for (ShardId s = 0; s < kMachines; ++s) {
      pins += static_cast<double>(cluster.store(s)->snapshot_pins());
    }
    if (timed) {
      tr.mutations.push_back(
          {seconds_between(start, t1), seconds_between(t0, t1) * 1e3, ok});
      tr.max_pins = std::max(tr.max_pins, pins);
    }
    if ((b + 1) % kCompactEvery != 0) return;
    const auto shard =
        static_cast<ShardId>(((b + 1) / kCompactEvery - 1) % kMachines);
    Event compaction{};
    try {
      obs::ScopedSpan span("bench.compact_shard");
      cluster.compact_shard(shard);
    } catch (const std::exception&) {
      compaction.ok = false;
    }
    const auto t2 = Clock::now();
    compaction.at_s = seconds_between(start, t2);
    compaction.ms = seconds_between(t1, t2) * 1e3;
    if (timed) tr.compactions.push_back(compaction);
  };

  write(0);
  const std::size_t first_timed = stream.size() - window_rounds;
  for (round = 1; round < stream.size(); ++round) {
    if (round == first_timed) {
      if (traced != nullptr) {
        traced->before = obs::MetricRegistry::global().snapshot();
        set_tracing(true);
      }
      timed = true;
      start = Clock::now();
    }
    pinned.graph_version = cluster.graph_version();
    next.store(0);
    sync.arrive_and_wait();
    write(round);
    sync.arrive_and_wait();
  }
  tr.window_s = seconds_between(start, Clock::now());
  done = true;
  sync.arrive_and_wait();
  for (auto& t : readers) t.join();
  if (traced != nullptr) {
    set_tracing(false);
    traced->after = obs::MetricRegistry::global().snapshot();
    traced->spans = obs::Tracer::global().spans();
  }
  return tr;
}

/// kQueriesPerRound seeded uniform sources for each of `rounds` rounds.
std::vector<NodeId> round_sources(std::uint64_t seed, std::size_t rounds,
                                  NodeId num_nodes) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 101);
  std::vector<NodeId> sources(rounds * kQueriesPerRound);
  for (NodeId& s : sources) {
    s = static_cast<NodeId>(rng.next_u64(num_nodes));
  }
  return sources;
}

}  // namespace

RunResult run_ingest_mixed(const RunArgs& args) {
  RunResult r;
  ClusterOptions options;
  options.num_machines = kMachines;
  options.network = NetworkModel{};
  SetupTimes times;
  Deployment d = set_up_inproc("products-sim", 0.25, options, kSetups, times);
  report_setup(times, r);

  SspprOptions ppr;
  ppr.alpha = 0.462;
  ppr.epsilon = 1e-5;

  // Answers on the unmutated graph, before any write lands.
  Rng check_rng(args.seed ^ 0xbb67ae8584caa73bULL);
  const auto n = static_cast<std::uint64_t>(d.graph.num_nodes());
  std::vector<double> precisions;
  for (int i = 0; i < kChecked; ++i) {
    Cluster& cluster = *d.cluster;
    const NodeRef ref =
        cluster.locate(static_cast<NodeId>(check_rng.next_u64(n)));
    check_guarantees(compute_ssppr(cluster.storage(ref.shard), ref, ppr),
                     d.graph, cluster.mapping(), r);
    precisions.push_back(top100_precision_at_paper_eps(
        cluster.storage(ref.shard), ref, ppr, d.graph, cluster.mapping()));
  }
  check_mean_precision(precisions, "before writes", r);

  const auto window_rounds =
      static_cast<std::size_t>(std::ceil(args.seconds * kRoundsPerS));
  const std::size_t num_batches = 1 + kWarmupRounds + window_rounds;
  const auto stream =
      mutation_stream(d.graph, static_cast<int>(num_batches), kOpsPerBatch,
                      kInsertFraction, kStreamSeed);
  const std::vector<NodeId> sources =
      round_sources(args.seed, num_batches, d.graph.num_nodes());

  const Timeline tr =
      run_pass(*d.cluster, stream, sources, ppr, window_rounds, nullptr);
  Latencies lat;
  std::vector<double> mutate_ms;
  std::uint64_t ok_queries = 0;
  for (const Event& e : tr.queries) {
    r.attempted += 1;
    if (!e.ok) {
      r.failed += 1;
      continue;
    }
    ok_queries += 1;
    lat.add(e.ms, e.at_s);
  }
  for (const auto* ops : {&tr.mutations, &tr.compactions}) {
    for (const Event& e : *ops) {
      r.attempted += 1;
      if (!e.ok) {
        r.failed += 1;
      } else if (ops == &tr.mutations) {
        mutate_ms.push_back(e.ms);
      }
    }
  }
  r.e2e["qps"] = share(static_cast<double>(ok_queries), tr.window_s);
  report_latency(lat, tr.window_s, tr.queries.size(), kSloLimitMs, r);
  const auto p95 = tail(mutate_ms, 0.95);
  if (!p95) {
    throw std::runtime_error("too few mutation batches for a p95 (" +
                             std::to_string(mutate_ms.size()) + ")");
  }
  // Zero on every other workload, so not gated end-to-end metrics.
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "{\"failed_share\": %.6f, \"mutate_p50_ms\": %.4f, "
                "\"mutate_p95_ms\": %.4f, \"window_s\": %.4f}",
                share(static_cast<double>(r.failed),
                      static_cast<double>(r.attempted)),
                median(mutate_ms), *p95, tr.window_s);
  r.record["ingest"] = buf;
  r.record["mutation_stream"] =
      "{\"seed\": " + std::to_string(kStreamSeed) +
      ", \"batches\": " + std::to_string(num_batches) +
      ", \"ops_per_batch\": " + std::to_string(kOpsPerBatch) +
      ", \"first_insert_then_delete_batch\": " +
      std::to_string(first_insert_then_delete_batch(stream)) +
      ", \"first_failed_batch\": " + std::to_string(tr.first_failed_batch) +
      ", \"first_failed_query_round\": " +
      std::to_string(tr.first_failed_query_round) + "}";

  // Answers read after the writes, at the final version: the same query
  // twice is bit-identical, mass is conserved, and top-100 precision
  // holds against the graph materialized from the landed batches. A
  // query that throws here is a failed operation, not a wrong answer.
  {
    Cluster& cluster = *d.cluster;
    const Graph now = materialize(d.graph, stream, tr.batch_ok);
    precisions.clear();
    for (int i = 0; i < kChecked; ++i) {
      const NodeRef ref =
          cluster.locate(static_cast<NodeId>(check_rng.next_u64(n)));
      try {
        const SspprState a =
            compute_ssppr(cluster.storage(ref.shard), ref, ppr);
        const SspprState b =
            compute_ssppr(cluster.storage(ref.shard), ref, ppr);
        check_identical(to_answer(a, cluster.mapping()),
                        to_answer(b, cluster.mapping()), "repeat at one pin",
                        r);
        if (std::abs(a.total_mass() - 1.0) > kMassTolerance) {
          r.fail_check("mass after writes");
        }
        precisions.push_back(top100_precision_at_paper_eps(
            cluster.storage(ref.shard), ref, ppr, now, cluster.mapping()));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "ingest_mixed: check query failed: %s\n",
                     e.what());
        r.record["check_query_error"] = json_str(e.what());
      }
    }
    check_mean_precision(precisions, "after writes", r);
  }
  r.e2e["rss_mb"] = peak_rss_mb();

  if (args.trace) {
    // The traced pass replays the same writes on a fresh deployment, so
    // its window sees the same versions as the untraced one.
    d = Deployment{};
    SetupTimes unused;
    d = set_up_inproc("products-sim", 0.25, options, 1, unused);
    Cluster& cluster = *d.cluster;
    Traced traced;
    const Timeline t =
        run_pass(cluster, stream, sources, ppr, window_rounds, &traced);
    const auto q = static_cast<double>(t.queries.size());
    double traced_ok = 0;
    for (const Event& e : t.queries) traced_ok += e.ok ? 1 : 0;
    fill_registry_layers(traced.before, traced.after, q, r);
    fill_obs_layers(r.e2e["qps"], share(traced_ok, t.window_s), q, r);
    r.layer["engine.pushes_per_query"] =
        share(static_cast<double>(t.pushes), q);
    fill_phase_layers(traced.timers, t.busy_s, q, r);
    double delta_edges = 0;
    for (ShardId s = 0; s < kMachines; ++s) {
      delta_edges += static_cast<double>(cluster.store(s)->delta_edges());
    }
    std::vector<double> compact_ms;
    for (const Event& e : t.compactions) {
      if (e.ok) compact_ms.push_back(e.ms);
    }
    r.layer["storage.delta_edges_end"] = delta_edges;
    r.layer["storage.snapshot_pins_max"] = t.max_pins;
    r.layer["storage.compact_ms_p50"] = median(compact_ms);
    r.layer["storage.mutate_span_ms_p50"] =
        median(span_ms(traced.spans, "storage.mutate"));
    r.layer["storage.fetch_call_us_p50"] =
        fetch_call_us_p50(cluster, args.seed);
  }
  return r;
}

}  // namespace enginebench
