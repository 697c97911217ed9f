// Answer checks, run outside every timed window. A failed check marks the
// run incorrect.
#pragma once

#include <utility>
#include <vector>

#include "common.hpp"
#include "graph/graph.hpp"
#include "ppr/ssppr_state.hpp"
#include "storage/dist_storage.hpp"

namespace enginebench {

/// Top-k size and minimum precision of the accuracy check, and how much
/// tighter the single-machine reference's ε is than the engine's.
inline constexpr std::size_t kTopK = 100;
inline constexpr double kMinMeanPrecision = 0.97;
inline constexpr double kPrecisionEps = 1e-6;
inline constexpr double kReferenceEpsFactor = 0.1;
/// Float-summation slack on pi + r mass (the engine tests use the same).
inline constexpr double kMassTolerance = 2e-6;

/// (global id, value) pairs sorted by id: the comparable form of an answer.
using Answer = std::vector<std::pair<ppr::NodeId, double>>;

Answer to_answer(const ppr::SspprState& state,
                 const ppr::GlobalMapping& mapping);

/// Bit-identity of two answers; records a check failure naming `what`.
void check_identical(const Answer& got, const Answer& want,
                     const std::string& what, RunResult& r);

/// The paper's guarantees on one finished query of `g` (as of the state's
/// pinned version): every residual r(v) <= ε·d_w(v) and π + r mass = 1.
void check_guarantees(const ppr::SspprState& state, const ppr::Graph& g,
                      const ppr::GlobalMapping& mapping, RunResult& r);

/// Top-100 precision against single-machine forward_push_sequential at a
/// tenth of the state's ε.
double top100_precision(const ppr::SspprState& state, const ppr::Graph& g,
                        const ppr::GlobalMapping& mapping);

/// The same at the paper's ε (1e-6): a workload serving a looser ε runs
/// the source again at 1e-6 on the same deployment.
double top100_precision_at_paper_eps(const ppr::DistGraphStorage& storage,
                                     ppr::NodeRef source,
                                     ppr::SspprOptions options,
                                     const ppr::Graph& g,
                                     const ppr::GlobalMapping& mapping);

/// The paper's accuracy claim is an average: the mean top-100 precision
/// of a sample must reach 0.97 (a single source whose top-100 ends in
/// near-ties can score lower).
void check_mean_precision(const std::vector<double>& precisions,
                          const std::string& what, RunResult& r);

}  // namespace enginebench
