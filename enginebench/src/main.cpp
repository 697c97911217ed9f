// engine_bench: runs one workload of the engine benchmark and prints its
// result as the last line of standard output.
//
//   engine_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--work-dir DIR]
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// runs the same window again with the span tracer on and prints the
// per-layer metrics. Metrics are printed as name -> value; run.py attaches
// the units BENCHMARK.json declares. A line {"record": ...} before the
// result holds the run's facts (host, seed, sample counts, quartiles).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "common/log.hpp"

namespace {

using namespace enginebench;

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

void print_record(const RunArgs& args, const RunResult& r) {
  std::string out = "{\"record\": {\"workload\": " + json_str(args.workload);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"seconds\": " + number(args.seconds);
  out += ", \"trace\": " + std::string(args.trace ? "true" : "false");
  const char* rev = std::getenv("ENGINEBENCH_GIT_REV");
  out += ", \"git_rev\": " + json_str(rev != nullptr ? rev : "unknown");
  out += ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"cpu_model\": " + json_str(cpu_model());
  out += ", \"inproc_network_model\": {\"latency_us\": 100, "
         "\"bandwidth_gbps\": 8, \"implemented_with\": \"sleep_for\"}";
  for (const auto& [key, value] : r.record) {
    out += ", " + json_str(key) + ": " + value;
  }
  out += ", \"check_failures\": [";
  for (std::size_t i = 0; i < r.check_failures.size(); ++i) {
    out += (i ? ", " : "") + json_str(r.check_failures[i]);
  }
  out += "]}}";
  std::printf("%s\n", out.c_str());
}

void print_result(const RunArgs& args, const RunResult& r) {
  std::string metrics;
  for (const auto& [name, value] : args.trace ? r.layer : r.e2e) {
    if (!metrics.empty()) metrics += ", ";
    metrics += json_str(name) + ": " + number(value);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      r.correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), metrics.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value != "0";
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  if (args.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  ppr::set_log_level(ppr::LogLevel::kWarn);
  try {
    RunResult r;
    if (args.workload == "offline_batch") {
      r = run_offline_batch(args);
    } else if (args.workload == "serve_open") {
      r = run_serve_open(args);
    } else if (args.workload == "ingest_mixed") {
      r = run_ingest_mixed(args);
    } else if (args.workload == "tcp_closed") {
      r = run_tcp_closed(args);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return 2;
    }
    for (const std::string& f : r.check_failures) {
      std::fprintf(stderr, "answer check failed: %s\n", f.c_str());
    }
    print_record(args, r);
    print_result(args, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "engine_bench: %s\n", e.what());
    return 1;
  }
  return 0;
}
