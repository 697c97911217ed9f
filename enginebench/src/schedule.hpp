// Seeded input generators and the open-loop pacer.
//
// Every input the engine sees is derived from the run's --seed through
// these functions, so one seed always yields the same sources, arrival
// times and fetch probes.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "serve/arrivals.hpp"

namespace enginebench {

/// Zipf(s) over `n` items: rank r (0-based) has weight 1/(r+1)^s. Ranks
/// map to items through a seeded permutation, so the hot items are
/// scattered over the id space instead of being nodes 0, 1, 2, ...
class ZipfSampler {
 public:
  ZipfSampler(ppr::NodeId n, double s, std::uint64_t seed)
      : items_(static_cast<std::size_t>(n)),
        cdf_(static_cast<std::size_t>(n)) {
    double total = 0;
    for (std::size_t r = 0; r < cdf_.size(); ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
    for (std::size_t i = 0; i < items_.size(); ++i) {
      items_[i] = static_cast<ppr::NodeId>(i);
    }
    ppr::Rng rng(seed ^ 0x21bf5a3c9e7d1f05ULL);
    for (std::size_t i = items_.size(); i > 1; --i) {
      std::swap(items_[i - 1], items_[rng.next_u64(i)]);
    }
  }

  ppr::NodeId operator()(ppr::Rng& rng) const {
    const double u = rng.next_double();
    auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    if (it == cdf_.end()) --it;
    return items_[static_cast<std::size_t>(it - cdf_.begin())];
  }

  /// Item at popularity rank `r` (0 = hottest).
  ppr::NodeId item_at_rank(std::size_t r) const { return items_[r]; }

 private:
  std::vector<ppr::NodeId> items_;
  std::vector<double> cdf_;
};

/// Poisson arrivals at `qps` for `seconds`, sources Zipf(s)-skewed over
/// the graph's nodes. Arrival times come from the engine's own schedule
/// generator; sources are redrawn from an independent stream of the same
/// seed.
inline ppr::serve::ArrivalSchedule make_open_loop_schedule(
    double qps, double seconds, ppr::NodeId num_nodes, double zipf_s,
    std::uint64_t seed) {
  const auto count = static_cast<std::size_t>(std::ceil(qps * seconds));
  ppr::serve::ArrivalSchedule s =
      ppr::serve::make_poisson_schedule(qps, count, num_nodes, seed);
  const ZipfSampler zipf(num_nodes, zipf_s, seed);
  ppr::Rng rng(seed ^ 0x7a3f0c55d1e2b4a9ULL);
  for (ppr::NodeId& src : s.sources) src = zipf(rng);
  return s;
}

/// Open-loop pacing: send arrival i at its scheduled offset `at[i]`
/// regardless of earlier sends. A send that overruns delays the sends
/// behind it; that delay is the generator's lateness, and it is counted
/// in every request's latency because latency is timed from the due time.
///
/// `now()` returns seconds since the run's start, `sleep_until(t)` blocks
/// until then, `send(i, due, sent)` issues arrival i, and `stop()` ends
/// the loop early. Returns each sent arrival's lateness in seconds.
template <typename Now, typename SleepUntil, typename Send, typename Stop>
std::vector<double> pace_open_loop(const std::vector<double>& at, Now&& now,
                                   SleepUntil&& sleep_until, Send&& send,
                                   Stop&& stop) {
  std::vector<double> late;
  late.reserve(at.size());
  for (std::size_t i = 0; i < at.size() && !stop(); ++i) {
    if (now() < at[i]) sleep_until(at[i]);
    const double sent = now();
    late.push_back(sent - at[i]);
    send(i, at[i], sent);
  }
  return late;
}

}  // namespace enginebench
