#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "engine/ssppr_driver.hpp"
#include "ppr/forward_push.hpp"
#include "ppr/metrics.hpp"

namespace enginebench {

using ppr::NodeId;

Answer to_answer(const ppr::SspprState& state,
                 const ppr::GlobalMapping& mapping) {
  Answer out;
  for (const auto& [ref, value] : state.ppr_entries()) {
    out.emplace_back(mapping.to_global(ref), value);
  }
  std::sort(out.begin(), out.end());
  return out;
}

void check_identical(const Answer& got, const Answer& want,
                     const std::string& what, RunResult& r) {
  if (got.size() != want.size()) {
    r.fail_check(what + ": " + std::to_string(got.size()) + " entries vs " +
                 std::to_string(want.size()));
    return;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    // Bit identity, not closeness: same ids, same IEEE values.
    if (got[i].first != want[i].first || got[i].second != want[i].second) {
      r.fail_check(what + ": entry " + std::to_string(i) + " differs");
      return;
    }
  }
}

void check_guarantees(const ppr::SspprState& state, const ppr::Graph& g,
                      const ppr::GlobalMapping& mapping, RunResult& r) {
  const double eps = state.options().epsilon;
  const NodeId source = mapping.to_global(state.source());
  const std::string tag = "source " + std::to_string(source);

  for (const auto& [ref, res] : state.residual_entries()) {
    const NodeId v = mapping.to_global(ref);
    if (res > eps * g.weighted_degree(v)) {
      r.fail_check(tag + ": residual above eps*d_w at node " +
                   std::to_string(v));
      return;
    }
  }
  const double mass = state.total_mass();
  if (std::abs(mass - 1.0) > kMassTolerance) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.12g", mass);
    r.fail_check(tag + ": total mass " + buf);
    return;
  }
}

double top100_precision(const ppr::SspprState& state, const ppr::Graph& g,
                        const ppr::GlobalMapping& mapping) {
  const NodeId source = mapping.to_global(state.source());
  const std::vector<double> approx = state.to_dense(mapping, g.num_nodes());
  const ppr::ForwardPushResult exact = ppr::forward_push_sequential(
      g, source, state.options().alpha,
      state.options().epsilon * kReferenceEpsFactor);
  return ppr::topk_precision(approx, exact.ppr, kTopK);
}

double top100_precision_at_paper_eps(const ppr::DistGraphStorage& storage,
                                     ppr::NodeRef source,
                                     ppr::SspprOptions options,
                                     const ppr::Graph& g,
                                     const ppr::GlobalMapping& mapping) {
  options.epsilon = kPrecisionEps;
  return top100_precision(ppr::compute_ssppr(storage, source, options), g,
                          mapping);
}

void check_mean_precision(const std::vector<double>& precisions,
                          const std::string& what, RunResult& r) {
  if (precisions.empty()) return;
  const double m = mean(precisions);
  if (m < kMinMeanPrecision) {
    r.fail_check(what + ": mean top-100 precision " + std::to_string(m));
  }
}

}  // namespace enginebench
