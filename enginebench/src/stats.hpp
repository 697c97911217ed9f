// Sample statistics shared by every workload: percentiles under the
// benchmark's tail rule, quartiles, and medians.
//
// Tail rule: a percentile p is reported only when at least
// kMinTailSamples samples lie beyond it, i.e. n * (1 - p) >= 10. Below
// that the "tail" is set by a handful of samples and does not repeat
// from run to run.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace enginebench {

inline constexpr double kMinTailSamples = 10.0;

/// True when `n` samples leave at least kMinTailSamples beyond quantile p.
inline bool tail_supported(std::size_t n, double p) {
  return static_cast<double>(n) * (1.0 - p) >= kMinTailSamples - 1e-9;
}

/// Nearest-rank quantile of `v` (sorted in place). Empty input gives 0.
inline double quantile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const auto idx = static_cast<std::size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// Quantile p under the tail rule: nullopt when fewer than
/// kMinTailSamples samples lie beyond it.
inline std::optional<double> tail(std::vector<double> v, double p) {
  if (!tail_supported(v.size(), p)) return std::nullopt;
  return quantile(v, p);
}

inline double median(std::vector<double> v) { return quantile(v, 0.5); }

struct Quartiles {
  double q1 = 0, median = 0, q3 = 0;
  std::size_t n = 0;
};

inline Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  q.n = v.size();
  q.q1 = quantile(v, 0.25);
  q.median = quantile(v, 0.5);
  q.q3 = quantile(v, 0.75);
  return q;
}

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace enginebench
