#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace enginebench {

void report_setup(const SetupTimes& t, RunResult& r) {
  // The first set-up of the process pays for its cold allocator and page
  // faults; the later ones repeat the same work warm.
  const auto warm = [](const std::vector<double>& v) {
    return median(std::vector<double>(v.begin() + (v.size() > 1 ? 1 : 0),
                                      v.end()));
  };
  r.e2e["setup_s"] = warm(t.total_s);
  r.layer["graph.generate_s"] = warm(t.generate_s);
  r.layer["partition.s"] = warm(t.partition_s);
  r.layer["engine.cluster_start_s"] = warm(t.start_s);
  r.layer["cluster.boot_s"] = warm(t.boot_s);
  std::string runs;
  for (const double s : t.total_s) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.4f", runs.empty() ? "" : ", ", s);
    runs += buf;
  }
  r.record["setup_s"] = "{\"runs\": [" + runs + "], \"first_dropped\": " +
                        (t.total_s.size() > 1 ? "true" : "false") + "}";
}

double report_latency(const Latencies& lat, double seconds,
                      std::uint64_t attempted, double slo_limit_ms,
                      RunResult& r) {
  const std::size_t n = lat.lat_ms.size();
  const auto per_window = static_cast<std::size_t>(kMinTailSamples / 0.01);
  const std::size_t windows = std::min(kTailWindows, n / per_window);  // 1000
  if (windows == 0) {
    throw std::runtime_error("too few latency samples for a p99 (" +
                             std::to_string(n) + "); the window is too short");
  }
  std::vector<std::vector<double>> parts(windows);
  std::size_t within = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double pos = std::clamp(lat.at_s[i] / seconds, 0.0, 1.0);
    const auto w = std::min(windows - 1,
                            static_cast<std::size_t>(pos * windows));
    parts[w].push_back(lat.lat_ms[i]);
    within += lat.lat_ms[i] <= slo_limit_ms ? 1 : 0;
  }
  std::vector<double> p99s;
  for (std::vector<double>& part : parts) {
    // Uneven sub-windows (a stall) may leave one short of the tail rule;
    // it then contributes no p99 of its own.
    if (const auto p99 = tail(std::move(part), 0.99)) p99s.push_back(*p99);
  }
  if (p99s.empty()) throw std::runtime_error("no sub-window supports a p99");
  const double p99 = median(p99s);
  r.e2e["lat_p50_ms"] = median(lat.lat_ms);
  r.e2e["slo_share"] = share(static_cast<double>(within),
                             static_cast<double>(attempted));
  const Quartiles q = quartiles(p99s);
  char buf[224];
  std::snprintf(buf, sizeof(buf),
                "{\"samples\": %zu, \"slo_limit_ms\": %g, "
                "\"lat_p99_ms\": %.6g, \"p99_windows\": {\"n\": %zu, "
                "\"q1\": %.4f, \"median\": %.4f, \"q3\": %.4f}}",
                n, slo_limit_ms, p99, q.n, q.q1, q.median, q.q3);
  r.record["latency"] = buf;
  return p99;
}

Quartiles per_second_rates(const std::vector<double>& done_at_s,
                           double seconds) {
  const auto windows = static_cast<std::size_t>(std::max(1.0, seconds));
  const double width = seconds / static_cast<double>(windows);
  std::vector<double> counts(windows, 0.0);
  for (const double t : done_at_s) {
    if (t < 0 || t >= seconds) continue;
    counts[std::min(windows - 1, static_cast<std::size_t>(t / width))] += 1;
  }
  for (double& c : counts) c /= width;
  return quartiles(counts);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double peak_rss_mb_of(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  return 0.0;
}

double counter_delta(const ppr::obs::MetricsSnapshot& before,
                     const ppr::obs::MetricsSnapshot& after,
                     const std::string& name) {
  return static_cast<double>(after.counter_total(name)) -
         static_cast<double>(before.counter_total(name));
}

std::vector<double> span_ms(const std::vector<ppr::obs::SpanRecord>& spans,
                            const std::string& name) {
  std::vector<double> out;
  for (const auto& s : spans) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
    }
  }
  return out;
}

void set_tracing(bool on) {
  auto& tracer = ppr::obs::Tracer::global();
  if (on) tracer.clear();
  tracer.set_enabled(on);
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace enginebench
