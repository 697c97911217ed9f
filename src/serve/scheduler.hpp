// Per-machine admission queue + work-conserving micro-batching scheduler.
//
// Each machine of the cluster gets one MachineScheduler (owner-compute
// rule: a query runs on the machine owning its source). Lifecycle of a
// query inside the scheduler:
//
//   submit ─▶ [bounded admission queue] ─▶ a free executor takes up to
//   max_batch_size queued queries ─▶ run_ssppr_batch over pooled states
//   ─▶ per-query futures complete.
//
// * Admission is non-blocking with explicit backpressure: when the queue
//   already holds `max_queue` queries, try_enqueue refuses and the caller
//   resolves the future as REJECTED — the service never blocks a client
//   on a saturated machine.
// * Executors pull their own batches (work-conserving batching): each of
//   the `executors_per_machine` threads, whenever it is free, takes up to
//   `max_batch_size` queued queries and runs them as one batch. Batches
//   therefore come from backlog: queries that arrive while every executor
//   is busy become the next batch, so batches grow with load (and
//   run_ssppr_batch coalesces their remote fetches per shard per round),
//   while at light load a query starts the moment it is admitted.
// * Holding is opt-in: with `max_batch_delay_us` > 0 an idle executor
//   holds a partial batch until `max_batch_size` queries are queued or
//   the delay has passed since the OLDEST queued query, whichever comes
//   first. The default (0) never holds.
// * Deadlines: every executor wake-up sweeps queued queries whose
//   deadline passed and resolves them TIMED_OUT without executing them
//   (their would-be states go unallocated, so an expired query costs
//   nothing downstream). Idle waits are capped by the earliest queued
//   deadline, so a timeout fires on time even while paused or with no
//   further arrivals; behind busy executors it fires when one frees.
// * Shutdown flushes: the destructor wakes every executor, which keep
//   taking batches of at most `max_batch_size` until the queue is empty,
//   so every admitted query's promise resolves.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/state_pool.hpp"
#include "serve/service_types.hpp"
#include "serve/stats.hpp"
#include "storage/dist_storage.hpp"

namespace ppr::serve {

class MachineScheduler {
 public:
  MachineScheduler(const DistGraphStorage& storage, const ServeOptions& options,
                   ServiceStats& stats);
  ~MachineScheduler();

  MachineScheduler(const MachineScheduler&) = delete;
  MachineScheduler& operator=(const MachineScheduler&) = delete;

  /// Non-blocking admission. Returns false (queue full or shutting down)
  /// without touching `q`; the caller rejects the query. On success the
  /// scheduler takes ownership of `q` and will resolve its promise.
  bool try_enqueue(PendingQuery&& q);

  /// Suspend batch formation. Per-query deadlines still fire while
  /// paused: the executors keep sweeping expired queries and resolving
  /// them TIMED_OUT, they just take no batches until resume().
  void pause();
  void resume();

  /// Block until the admission queue is empty and no batch is executing.
  /// Precondition: not paused (a paused scheduler never drains).
  void drain();

  std::size_t states_created() const { return pool_.states_created(); }

 private:
  using Clock = std::chrono::steady_clock;

  void executor_loop();
  /// Flush the queue and join every executor (shutdown).
  void stop_executors();
  /// Move every queued query whose deadline has passed into `expired`
  /// (caller holds `mutex_`); their promises complete outside the lock.
  void sweep_expired_locked(std::vector<PendingQuery>& expired);
  void execute_batch(std::vector<PendingQuery> batch,
                     Clock::time_point start);
  void finish_batch();

  const DistGraphStorage& storage_;
  const ServeOptions& options_;
  ServiceStats& stats_;
  SspprStatePool pool_;
  const Clock::duration hold_;  // max_batch_delay_us

  std::mutex mutex_;
  std::condition_variable work_cv_;  // executor wake-ups
  std::condition_variable idle_cv_;  // drain() waits
  std::deque<PendingQuery> queue_;
  int inflight_batches_ = 0;
  bool paused_ = false;
  bool stop_ = false;

  // Started last and joined in the destructor body, while every member
  // the executors touch is still alive.
  std::vector<std::thread> executors_;
};

}  // namespace ppr::serve
