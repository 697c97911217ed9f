#include "serve/scheduler.hpp"

#include <algorithm>
#include <optional>

#include "common/timer.hpp"
#include "engine/ssppr_batch.hpp"
#include "obs/trace.hpp"

namespace ppr::serve {

namespace {

double micros_between(std::chrono::steady_clock::time_point from,
                      std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

/// Retroactive root span of a resolved query (enqueue -> resolution).
/// Inert for untraced queries.
void record_query_span(const PendingQuery& q,
                       std::chrono::steady_clock::time_point end) {
  if (!q.trace.active()) return;
  obs::Tracer::global().record_span("serve.query", q.trace.trace_id,
                                    q.trace.span_id, 0, q.enqueue_time, end);
}

/// Resolve queries swept out of the queue as TIMED_OUT (never executed).
void resolve_timed_out(std::vector<PendingQuery>& expired,
                       ServiceStats& stats) {
  for (PendingQuery& q : expired) {
    stats.on_timed_out();
    const auto now = std::chrono::steady_clock::now();
    QueryResult r;
    r.status = QueryStatus::kTimedOut;
    r.source = q.source;
    r.e2e_us = micros_between(q.enqueue_time, now);
    record_query_span(q, now);
    q.promise.set_value(std::move(r));
  }
}

}  // namespace

MachineScheduler::MachineScheduler(const DistGraphStorage& storage,
                                   const ServeOptions& options,
                                   ServiceStats& stats)
    : storage_(storage),
      options_(options),
      stats_(stats),
      pool_(options.ppr),
      hold_(std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double, std::micro>(
              options.max_batch_delay_us))),
      paused_(options.start_paused) {
  GE_REQUIRE(options.max_queue >= 1, "max_queue must be >= 1");
  GE_REQUIRE(options.max_batch_size >= 1, "max_batch_size must be >= 1");
  GE_REQUIRE(options.max_batch_delay_us >= 0,
             "max_batch_delay_us must be >= 0");
  const int n = std::max(1, options.executors_per_machine);
  executors_.reserve(static_cast<std::size_t>(n));
  try {
    for (int i = 0; i < n; ++i) {
      executors_.emplace_back([this] { executor_loop(); });
    }
  } catch (...) {
    stop_executors();  // join the ones already started
    throw;
  }
}

MachineScheduler::~MachineScheduler() { stop_executors(); }

void MachineScheduler::stop_executors() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    paused_ = false;  // a paused scheduler still flushes on shutdown
  }
  work_cv_.notify_all();
  for (std::thread& t : executors_) t.join();
}

bool MachineScheduler::try_enqueue(PendingQuery&& q) {
  // Pin at admission: a kVersionLatest query resolves to the newest
  // published graph version here, NOT at dispatch — see PendingQuery.
  q.pinned_version = storage_.resolve_pin(q.pinned_version);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_ || queue_.size() >= options_.max_queue) return false;
    queue_.push_back(std::move(q));
  }
  work_cv_.notify_one();
  return true;
}

void MachineScheduler::pause() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void MachineScheduler::resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  work_cv_.notify_all();
}

void MachineScheduler::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] {
    return queue_.empty() && inflight_batches_ == 0;
  });
}

void MachineScheduler::sweep_expired_locked(
    std::vector<PendingQuery>& expired) {
  const auto now = Clock::now();
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->deadline <= now) {
      expired.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
}

void MachineScheduler::executor_loop() {
  for (;;) {
    std::vector<PendingQuery> expired;
    std::vector<PendingQuery> batch;
    Clock::time_point start{};
    bool exit = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      for (;;) {
        sweep_expired_locked(expired);
        if (queue_.empty()) {
          if (stop_) {
            exit = true;
            break;
          }
        } else if (!paused_) {
          // Free executor, queued work: take it now unless holding was
          // asked for and the batch is neither full nor past its hold.
          // Shutdown ignores the hold so no promise is abandoned.
          start = Clock::now();
          if (stop_ || queue_.size() >= options_.max_batch_size ||
              start >= queue_.front().enqueue_time + hold_) {
            const std::size_t take =
                std::min(queue_.size(), options_.max_batch_size);
            batch.reserve(take);
            for (std::size_t i = 0; i < take; ++i) {
              batch.push_back(std::move(queue_.front()));
              queue_.pop_front();
            }
            ++inflight_batches_;
            break;
          }
        }
        if (!expired.empty()) break;  // resolve them before sleeping
        // Sleep until an arrival, resume() or shutdown, capped at the
        // earliest queued deadline and, while holding, at the oldest
        // query's hold expiry.
        auto wake = Clock::time_point::max();
        for (const PendingQuery& q : queue_) wake = std::min(wake, q.deadline);
        if (!paused_ && !queue_.empty()) {
          wake = std::min(wake, queue_.front().enqueue_time + hold_);
        }
        if (wake == Clock::time_point::max()) {
          work_cv_.wait(lock);
        } else {
          work_cv_.wait_until(lock, wake);
        }
      }
      if (queue_.empty()) idle_cv_.notify_all();
    }
    resolve_timed_out(expired, stats_);
    if (!batch.empty()) execute_batch(std::move(batch), start);
    if (exit) return;
  }
}

void MachineScheduler::execute_batch(std::vector<PendingQuery> batch,
                                     Clock::time_point start) {
  std::vector<NodeRef> sources;
  sources.reserve(batch.size());
  Clock::time_point oldest = batch.front().enqueue_time;
  for (const PendingQuery& q : batch) {
    sources.push_back(q.source);
    oldest = std::min(oldest, q.enqueue_time);
  }
  stats_.on_batch(batch.size(), micros_between(oldest, start));

  // Per-query queue-wait spans, recorded retroactively now that the wait
  // is over. Each parents onto its query's root span.
  for (const PendingQuery& q : batch) {
    if (!q.trace.active()) continue;
    obs::Tracer::global().record_span("serve.queue_wait", q.trace.trace_id,
                                      obs::next_span_id(), q.trace.span_id,
                                      q.enqueue_time, start);
  }
  // The batch executes once for all members; its span lives in the first
  // traced member's trace (nested under that query's root span), and every
  // pipeline round / RPC issued inside inherits it.
  obs::TraceContext batch_owner{};
  for (const PendingQuery& q : batch) {
    if (q.trace.active()) {
      batch_owner = q.trace;
      break;
    }
  }

  // The batch runs at the max concrete pin of its members: one coherent
  // snapshot, never older than any member's admission version.
  // kVersionLatest members (admitted before any mutation) are upgraded
  // along with the rest; all-latest stays latest (the clean fast path).
  DriverOptions driver = options_.driver;
  for (const PendingQuery& q : batch) {
    if (q.pinned_version == kVersionLatest) continue;
    if (driver.graph_version == kVersionLatest ||
        q.pinned_version > driver.graph_version) {
      driver.graph_version = q.pinned_version;
    }
  }

  std::string error;
  std::vector<QueryResult> results(batch.size());
  try {
    SspprStatePool::Lease lease = pool_.acquire(sources);
    const std::span<SspprState> states = lease.states();
    WallTimer wall;
    {
      obs::TraceBinding bind(batch_owner);
      std::optional<obs::ScopedSpan> span;
      if (batch_owner.active()) span.emplace("serve.batch");
      run_ssppr_batch(storage_, states, driver);
    }
    const double execute_us = wall.micros();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      QueryResult& r = results[i];
      r.status = QueryStatus::kOk;
      r.source = batch[i].source;
      if (options_.collect_entries) r.ppr = states[i].ppr_entries();
      r.num_pushes = states[i].num_pushes();
      r.batch_size = batch.size();
      r.queue_wait_us = micros_between(batch[i].enqueue_time, start);
      r.execute_us = execute_us;
    }
  } catch (const std::exception& e) {
    error = e.what();
  }

  const auto done = Clock::now();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (!error.empty()) {
      batch[i].promise.set_error(error);
      continue;
    }
    QueryResult& r = results[i];
    r.e2e_us = micros_between(batch[i].enqueue_time, done);
    stats_.on_completed(r.queue_wait_us, r.execute_us, r.e2e_us);
    record_query_span(batch[i], done);
    batch[i].promise.set_value(std::move(r));
  }
  finish_batch();
}

void MachineScheduler::finish_batch() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --inflight_batches_;
  }
  idle_cv_.notify_all();
}

}  // namespace ppr::serve
