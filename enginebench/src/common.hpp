// Shared plumbing of the engine benchmark: run arguments, the result
// every workload fills, clocks, registry deltas and process facts.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stats.hpp"

namespace enginebench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (node configs, node caches).
  std::string work_dir = ".bench_build/run";
};

/// What one run reports: `e2e` holds the end-to-end metrics of the
/// untraced window, `layer` the per-layer metrics of the traced one
/// (a layer the workload does not have is left out and reads 0).
struct RunResult {
  bool correct = true;
  std::vector<std::string> check_failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  /// Extra facts for the record line (already JSON-encoded values).
  std::map<std::string, std::string> record;

  void fail_check(const std::string& what) {
    correct = false;
    if (check_failures.size() < 8) check_failures.push_back(what);
  }
};

/// Setup timings of one run: several full set-ups; the median of all but
/// the first (cold) one is reported.
struct SetupTimes {
  std::vector<double> total_s, generate_s, partition_s, start_s, boot_s;
};
void report_setup(const SetupTimes& t, RunResult& r);

/// Latency of successful operations: `lat_ms[i]` ended (or, open loop,
/// was due) at offset `at_s[i]` of a window `seconds` long.
struct Latencies {
  std::vector<double> lat_ms, at_s;
  void add(double ms, double at) {
    lat_ms.push_back(ms);
    at_s.push_back(at);
  }
};

/// lat_p50_ms and slo_share (successes within `slo_limit_ms` over
/// `attempted`, so failures count as misses), plus the p99 for the record
/// line, which is also returned. The p99 is the median of the p99s of up
/// to kTailWindows equal sub-windows, each holding enough samples for the
/// tail rule: a host stall lands in one sub-window instead of setting the
/// whole run's tail. Throws when the run has too few samples for even one
/// p99.
inline constexpr std::size_t kTailWindows = 10;
double report_latency(const Latencies& lat, double seconds,
                      std::uint64_t attempted, double slo_limit_ms,
                      RunResult& r);

/// Quartiles of the per-second completion rates over the window
/// [0, seconds): `done_at_s` holds each successful op's completion offset.
Quartiles per_second_rates(const std::vector<double>& done_at_s,
                           double seconds);

/// Peak resident set of this process, MB.
double peak_rss_mb();
/// Peak resident set (VmHWM) of another process, MB; 0 if unreadable.
double peak_rss_mb_of(int pid);

/// Change of a registry counter family (all labels) between snapshots.
double counter_delta(const ppr::obs::MetricsSnapshot& before,
                     const ppr::obs::MetricsSnapshot& after,
                     const std::string& name);

/// Durations (ms) of recorded spans named `name`.
std::vector<double> span_ms(const std::vector<ppr::obs::SpanRecord>& spans,
                            const std::string& name);

/// Switch the span tracer on (dropping earlier spans) or off (keeping
/// the spans recorded since it was switched on).
void set_tracing(bool on);

inline double share(double part, double whole) {
  return whole > 0 ? part / whole : 0.0;
}

/// JSON string literal.
std::string json_str(const std::string& s);

RunResult run_offline_batch(const RunArgs& args);
RunResult run_serve_open(const RunArgs& args);
RunResult run_ingest_mixed(const RunArgs& args);
RunResult run_tcp_closed(const RunArgs& args);

}  // namespace enginebench
