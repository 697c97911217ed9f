// QueryService: the online SSPPR serving runtime.
//
// Where the throughput harness (engine/throughput.*) measures pre-formed
// offline batches, this service forms batches from an ARRIVING query
// stream: submit() routes each query to the machine owning its source
// (owner-compute rule), a per-machine MachineScheduler admits it into a
// bounded queue, and a free executor takes the queued backlog as one
// run_ssppr_batch micro-batch (see scheduler.hpp), and
// the caller gets a typed future that resolves to OK (with the PPR
// entries), REJECTED (admission queue full — explicit backpressure), or
// TIMED_OUT (deadline expired before execution). ServiceStats aggregates
// SLO metrics — p50/p95/p99 queue-wait, batch-form, execute, and
// end-to-end latency — across all machines.
#pragma once

#include <memory>
#include <vector>

#include "engine/cluster.hpp"
#include "serve/scheduler.hpp"
#include "serve/service_types.hpp"
#include "serve/stats.hpp"

namespace ppr::serve {

class QueryService {
 public:
  QueryService(Cluster& cluster, ServeOptions options);
  /// Flushes every admitted query (deadline sweeps still apply) before
  /// returning, so no future is left unresolved.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Submit a query by global node id. Never blocks: a full admission
  /// queue yields an already-resolved REJECTED future. `deadline_us` < 0
  /// uses ServeOptions::default_deadline_us; 0 disables the deadline.
  QueryFuture submit(NodeId global_source, double deadline_us = -1);
  /// Submit by <local id, shard id> reference.
  QueryFuture submit(NodeRef source, double deadline_us = -1);

  /// Pause/resume batch formation on every machine (queues keep
  /// admitting; no executor takes a batch while paused).
  void pause();
  void resume();

  /// Block until every admitted query has been executed or timed out.
  void drain();

  const ServeOptions& options() const { return options_; }
  ServiceStatsSnapshot stats() const;

 private:
  Cluster& cluster_;
  ServeOptions options_;
  ServiceStats stats_;
  std::vector<std::unique_ptr<MachineScheduler>> schedulers_;
};

}  // namespace ppr::serve
