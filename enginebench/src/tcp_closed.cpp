// tcp_closed: the real frame path. Two graph_engine_node processes on
// localhost TCP serve twitter-sim at a small scale with hash partitioning;
// the benchmark joins the mesh as a ClusterClient and drives it with two
// closed-loop submitter threads. The only workload through tcp_transport,
// frame_io, query_wire and ClusterNode; the in-process workloads bypass
// all of them.
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <random>
#include <thread>

#include "checks.hpp"
#include "cluster/client.hpp"
#include "cluster/config.hpp"
#include "common.hpp"
#include "common/rng.hpp"
#include "engine/cluster.hpp"
#include "engine/datasets.hpp"
#include "engine/ssppr_driver.hpp"
#include "inproc.hpp"
#include "partition/partitioner.hpp"
#include "serve/service_types.hpp"

namespace enginebench {
namespace {

using namespace ppr;
namespace fs = std::filesystem;

constexpr int kNodes = 2;
constexpr int kBoots = 7;
constexpr int kSubmitters = 2;
constexpr double kWarmupS = 2.0;
constexpr double kScale = 0.05;
constexpr double kEpsilon = 1e-5;
constexpr int kChecked = 6;
// Fixed per-query latency limit. The p99 measured on a 4-thread x86 VM
// ranged from 5 to 22 ms with the host's load; well above that, slo_share
// moves on overload and failures rather than on host noise.
constexpr double kSloLimitMs = 100.0;

/// The node processes of one boot. Every process started here is reaped
/// here: politely through the client's shutdown RPC when possible, by
/// SIGKILL otherwise.
class NodeProcesses {
 public:
  NodeProcesses() = default;
  NodeProcesses(const NodeProcesses&) = delete;
  NodeProcesses& operator=(const NodeProcesses&) = delete;
  ~NodeProcesses() { stop(nullptr); }

  void spawn(const std::string& config_path, int node) {
    const pid_t pid = ::fork();
    if (pid < 0) throw std::runtime_error("fork failed");
    if (pid == 0) {
      ::dup2(STDERR_FILENO, STDOUT_FILENO);  // keep stdout for the result
      const std::string config_arg = "--config=" + config_path;
      const std::string node_arg = "--node=" + std::to_string(node);
      ::execl(ENGINEBENCH_NODE_BIN, "graph_engine_node", config_arg.c_str(),
              node_arg.c_str(), static_cast<char*>(nullptr));
      std::perror("execl graph_engine_node");
      ::_exit(127);
    }
    pids_.push_back(pid);
  }

  const std::vector<pid_t>& pids() const { return pids_; }

  /// Ask the cluster to drain through `client` (if any), then reap every
  /// node, killing those that do not exit within a few seconds.
  void stop(cluster::ClusterClient* client) {
    if (pids_.empty()) return;
    if (client != nullptr) {
      try {
        client->shutdown_cluster();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "tcp_closed: shutdown RPC failed: %s\n",
                     e.what());
      }
    }
    const auto deadline = Clock::now() + std::chrono::seconds(10);
    for (const pid_t pid : pids_) {
      int status = 0;
      while (::waitpid(pid, &status, WNOHANG) == 0) {
        if (client == nullptr || Clock::now() > deadline) {
          ::kill(pid, SIGKILL);
          ::waitpid(pid, &status, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    pids_.clear();
  }

 private:
  std::vector<pid_t> pids_;
};

/// Removes the run's scratch directory however the run ends.
struct ScratchDir {
  fs::path path;
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

struct Booted {
  ClusterConfig config;
  NodeProcesses nodes;
  std::unique_ptr<cluster::ClusterClient> client;

  ~Booted() { shut_down(); }
  void shut_down() {
    nodes.stop(client.get());
    if (client != nullptr) client->leave();
    client.reset();
  }
};

std::string config_text(int base_port, const std::string& cache_dir) {
  std::string t;
  t += "cluster_name = enginebench\n";
  t += "dataset = twitter-sim\n";
  t += "scale = " + std::to_string(kScale) + "\n";
  t += "partition = hash\n";
  t += "cache_dir = " + cache_dir + "\n";
  t += "server_threads = 2\n";
  t += "query_threads = 2\n";
  t += "ppr_epsilon = " + std::to_string(kEpsilon) + "\n";
  for (int i = 0; i < kNodes; ++i) {
    t += "node " + std::to_string(i) + " 127.0.0.1 " +
         std::to_string(base_port + i) + " storage\n";
  }
  t += "node " + std::to_string(kNodes) + " 127.0.0.1 " +
       std::to_string(base_port + kNodes) + " client\n";
  return t;
}

/// Boot the nodes and join them. Each boot gets fresh, empty graph cache
/// directories, so every process generates the graph in memory. Port
/// collisions with other programs are retried on fresh ports.
std::unique_ptr<Booted> boot(const fs::path& dir, std::mt19937& ports) {
  for (int attempt = 0; attempt < 3; ++attempt) {
    const fs::path nodes_dir = dir / ("nodes" + std::to_string(attempt));
    const fs::path client_dir = dir / ("client" + std::to_string(attempt));
    fs::create_directories(nodes_dir);
    fs::create_directories(client_dir);
    const int base = 20000 + static_cast<int>(ports() % 30000);
    const std::string text = config_text(base, nodes_dir.string());
    const std::string config_path = (dir / "cluster.conf").string();
    std::ofstream(config_path) << text;

    auto b = std::make_unique<Booted>();
    b->config = ClusterConfig::parse_string(text, config_path);
    for (int i = 0; i < kNodes; ++i) b->nodes.spawn(config_path, i);
    try {
      ClusterConfig mine = b->config;
      mine.cache_dir = client_dir.string();
      TcpTransportOptions net;
      net.connect_timeout_s = 60.0;
      b->client = std::make_unique<cluster::ClusterClient>(mine, kNodes, net);
      return b;
    } catch (const EngineError& e) {
      std::fprintf(stderr, "tcp_closed: boot attempt %d failed: %s\n",
                   attempt, e.what());
      b->nodes.stop(nullptr);
    }
  }
  throw std::runtime_error("the TCP cluster never booted");
}

struct Window {
  Latencies lat;
  std::uint64_t attempted = 0, failed = 0;
};

Window run_window(cluster::ClusterClient& client, std::vector<Rng>& rngs,
                  NodeId n, double seconds) {
  Window w;
  std::mutex mu;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&, t] {
      Rng& rng = rngs[static_cast<std::size_t>(t)];
      Window local;
      while (Clock::now() < end) {
        const auto source = static_cast<NodeId>(
            rng.next_u64(static_cast<std::uint64_t>(n)));
        const auto t0 = Clock::now();
        bool ok = true;
        try {
          obs::ScopedSpan span("bench.client_ssppr");
          ok = client.ssppr(source).status ==
               static_cast<std::uint8_t>(serve::QueryStatus::kOk);
        } catch (const std::exception& e) {
          ok = false;
          std::fprintf(stderr, "tcp_closed: query failed: %s\n", e.what());
        }
        const auto t1 = Clock::now();
        if (t1 >= end) break;
        local.attempted += 1;
        if (!ok) {
          local.failed += 1;
          continue;
        }
        local.lat.add(seconds_between(t0, t1) * 1e3,
                      seconds_between(start, t1));
      }
      std::lock_guard<std::mutex> lock(mu);
      w.lat.lat_ms.insert(w.lat.lat_ms.end(), local.lat.lat_ms.begin(),
                          local.lat.lat_ms.end());
      w.lat.at_s.insert(w.lat.at_s.end(), local.lat.at_s.begin(),
                        local.lat.at_s.end());
      w.attempted += local.attempted;
      w.failed += local.failed;
    });
  }
  for (auto& t : threads) t.join();
  return w;
}

/// Counters of a registry JSON export (`"counters": {"key": n, ...}`) as
/// snapshot entries, so node-side deltas go through the same helpers as
/// the in-process registry.
void add_counters(const std::string& json, obs::MetricsSnapshot& into) {
  const std::string open = "\"counters\": {";
  std::size_t pos = json.find(open);
  if (pos == std::string::npos) return;
  pos += open.size();
  while (pos < json.size() && json[pos] != '}') {
    const std::size_t k0 = json.find('"', pos);
    const std::size_t k1 = json.find('"', k0 + 1);
    const std::size_t colon = json.find(':', k1);
    std::size_t end = colon + 1;
    while (end < json.size() && json[end] != ',' && json[end] != '}') ++end;
    obs::MetricsSnapshot::Entry e;
    e.key = json.substr(k0 + 1, k1 - k0 - 1);
    e.name = e.key.substr(0, e.key.find('{'));
    e.kind = obs::MetricKind::kCounter;
    e.counter = std::stoull(json.substr(colon + 1, end - colon - 1));
    into.entries.push_back(std::move(e));
    pos = json[end] == ',' ? end + 1 : end;
  }
}

/// p50 (ms) of a histogram in a registry JSON export, and its count.
std::pair<double, double> hist_p50(const std::string& json,
                                   const std::string& key) {
  const std::size_t at = json.find("\"" + key + "\": {");
  if (at == std::string::npos) return {0, 0};
  const auto field = [&](const std::string& name) {
    const std::size_t f = json.find("\"" + name + "\": ", at);
    return f == std::string::npos
               ? 0.0
               : std::stod(json.substr(f + name.size() + 4));
  };
  return {field("p50_us") * 1e-3, field("count")};
}

obs::MetricsSnapshot cluster_counters(cluster::ClusterClient& client) {
  obs::MetricsSnapshot s = obs::MetricRegistry::global().snapshot();
  for (int i = 0; i < kNodes; ++i) add_counters(client.metrics_json(i), s);
  return s;
}

}  // namespace

RunResult run_tcp_closed(const RunArgs& args) {
  RunResult r;
  const ScratchDir scratch{fs::absolute(args.work_dir) /
                          ("tcp_closed_" + std::to_string(::getpid()))};
  const fs::path& dir = scratch.path;
  fs::create_directories(dir);
  std::mt19937 ports(static_cast<unsigned>(::getpid()) ^
                     static_cast<unsigned>(args.seed));

  // The single-machine reference and the in-process engine the TCP
  // answers must match bit for bit; generated the way every node does.
  const Graph g = load_or_generate(dataset_spec("twitter-sim"), "", kScale);
  const PartitionAssignment part = partition_hash(g, kNodes);
  ClusterOptions ref_opts;
  ref_opts.num_machines = kNodes;
  ref_opts.network = no_network_cost();
  Cluster reference(g, part, ref_opts);

  SetupTimes times;
  std::unique_ptr<Booted> b;
  for (int i = 0; i < kBoots; ++i) {
    if (b != nullptr) b->shut_down();
    b.reset();
    const auto t0 = Clock::now();
    b = boot(dir / ("boot" + std::to_string(i)), ports);
    const double s = seconds_between(t0, Clock::now());
    times.total_s.push_back(s);
    times.boot_s.push_back(s);
    // The nodes generate and partition their own graph inside the boot.
    times.generate_s.push_back(0.0);
    times.partition_s.push_back(0.0);
    times.start_s.push_back(0.0);
  }
  report_setup(times, r);
  cluster::ClusterClient& client = *b->client;

  std::vector<Rng> rngs;
  for (int t = 0; t < kSubmitters; ++t) {
    rngs.emplace_back(args.seed * 0x9e3779b97f4a7c15ULL + 7 + t);
  }
  run_window(client, rngs, g.num_nodes(), kWarmupS);
  const Window w = run_window(client, rngs, g.num_nodes(), args.seconds);
  r.attempted = w.attempted;
  r.failed = w.failed;
  r.e2e["qps"] = share(static_cast<double>(w.lat.lat_ms.size()), args.seconds);
  report_latency(w.lat, args.seconds, w.attempted, kSloLimitMs, r);

  if (args.trace) {
    const auto before = cluster_counters(client);
    set_tracing(true);
    const Window t = run_window(client, rngs, g.num_nodes(), args.seconds);
    set_tracing(false);
    const auto after = cluster_counters(client);
    const double q = static_cast<double>(t.attempted);
    fill_registry_layers(before, after, q, r);
    fill_obs_layers(r.e2e["qps"],
                    share(static_cast<double>(t.lat.lat_ms.size()),
                          args.seconds),
                    q, r);
    const auto d = [&](const char* name) {
      return counter_delta(before, after, name);
    };
    r.layer["rpc.tcp.bytes_per_query"] =
        share(d("rpc.tcp.bytes_sent") + d("rpc.tcp.bytes_received"), q);
    r.layer["rpc.tcp.frames_per_query"] =
        share(d("rpc.tcp.frames_sent") + d("rpc.tcp.frames_received"), q);
    double e2e_sum = 0, count = 0;
    for (int i = 0; i < kNodes; ++i) {
      const auto [p50, n] = hist_p50(client.metrics_json(i), "serve.e2e_us");
      e2e_sum += p50 * n;
      count += n;
    }
    const double node_e2e = share(e2e_sum, count);
    r.layer["cluster.node_e2e_ms_p50"] = node_e2e;
    r.layer["cluster.wire_residual_ms_p50"] = median(t.lat.lat_ms) - node_e2e;
  }

  // TCP answers must be bit-identical to the in-process engine's.
  Rng check_rng(args.seed ^ 0x510e527fade682d1ULL);
  SspprOptions ppr;
  ppr.alpha = b->config.ppr_alpha;
  ppr.epsilon = b->config.ppr_epsilon;
  for (int i = 0; i < kChecked; ++i) {
    const auto source = static_cast<NodeId>(
        check_rng.next_u64(static_cast<std::uint64_t>(g.num_nodes())));
    const cluster::SspprReply tcp = client.ssppr(source);
    const NodeRef ref = reference.locate(source);
    const SspprState want =
        compute_ssppr(reference.storage(ref.shard), ref, ppr);
    Answer got(tcp.entries.begin(), tcp.entries.end());
    check_identical(got, to_answer(want, reference.mapping()),
                    "tcp vs in-process", r);
    if (i < 2) check_guarantees(want, g, reference.mapping(), r);
  }

  double node_rss = 0;
  for (const pid_t pid : b->nodes.pids()) node_rss += peak_rss_mb_of(pid);
  r.e2e["rss_mb"] = node_rss;
  b->shut_down();
  return r;
}

}  // namespace enginebench
