// Helpers shared by the in-process workloads (offline_batch, serve_open,
// ingest_mixed): building a deployment from scratch, reading the fetch and
// RPC layers out of the registry, and the timed storage fetch probe.
#pragma once

#include <memory>
#include <string>

#include "common.hpp"
#include "common/timer.hpp"
#include "engine/cluster.hpp"
#include "graph/graph.hpp"

namespace enginebench {

struct Deployment {
  ppr::Graph graph;
  std::unique_ptr<ppr::Cluster> cluster;
};

/// Set the deployment up `repeats` times from nothing (generate the
/// dataset replica in memory, multilevel-partition it, start the cluster)
/// and keep the last one. Never reads the on-disk dataset cache, so every
/// set-up does the same work.
Deployment set_up_inproc(const std::string& dataset, double scale,
                         const ppr::ClusterOptions& options, int repeats,
                         SetupTimes& times);

/// Per-shard core-node counts: the topology the dense push kernel needs.
std::vector<ppr::NodeId> shard_core_counts(ppr::Cluster& cluster);

/// Fetch-pipeline, adjacency-cache, RPC and kernel layers from registry
/// deltas over a window that ran `queries` queries.
void fill_registry_layers(const ppr::obs::MetricsSnapshot& before,
                          const ppr::obs::MetricsSnapshot& after,
                          double queries, RunResult& r);

/// The engine and ppr layers a `PhaseTimers` accumulated over a window
/// that ran `queries` queries in `busy_s` of computing-thread time.
void fill_phase_layers(const ppr::PhaseTimers& timers, double busy_s,
                       double queries, RunResult& r);

/// Median wall time (µs) of get_neighbor_infos_async().wait() for a fixed
/// seeded set of rows on shard 1, issued from machine 0; calls that throw
/// are left out (0 when all do).
double fetch_call_us_p50(ppr::Cluster& cluster, std::uint64_t seed);

/// Spans per query and the tracing overhead 1 - traced / untraced, where
/// the pair is the window's qps (closed loop) or, for an open loop whose
/// qps is the offered rate, the inverse median latency.
void fill_obs_layers(double untraced_rate, double traced_rate,
                     double queries, RunResult& r);

}  // namespace enginebench
