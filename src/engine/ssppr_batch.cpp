#include "engine/ssppr_batch.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "storage/fetch_pipeline.hpp"

namespace ppr {

namespace {

/// Per-query buffers of the lockstep loop, allocated once per
/// run_ssppr_batch call and recycled every round. The cross-query union,
/// cache splits, and RPCs all live in the shared FetchPipeline; this only
/// keeps each query's popped frontier, its per-shard group positions, and
/// the gather buffers of its push calls.
struct BatchScratch {
  BatchScratch(std::size_t num_queries, std::size_t num_shards)
      : node_ids(num_queries),
        shard_ids(num_queries),
        groups(num_queries,
               std::vector<std::vector<std::size_t>>(num_shards)),
        push(num_queries) {}

  void begin_round(std::size_t num_queries) {
    for (std::size_t q = 0; q < num_queries; ++q) {
      for (auto& g : groups[q]) g.clear();
    }
  }

  // One push call's rows; cleared after every call, so only the capacity
  // survives across rounds.
  struct PushBuffers {
    std::vector<VertexProp> infos;
    std::vector<NodeId> loc;
    std::vector<ShardId> shv;
  };

  // Per query: this round's popped frontier and, per shard, the positions
  // (into node_ids[q]) of the frontier nodes living on that shard. One
  // PushBuffers per query keeps the OpenMP fan-out free of sharing.
  std::vector<std::vector<NodeId>> node_ids;
  std::vector<std::vector<ShardId>> shard_ids;
  std::vector<std::vector<std::vector<std::size_t>>> groups;
  std::vector<PushBuffers> push;
};

/// Run `fn(q)` for every query, spread over `threads` OpenMP threads when
/// more than one (states are disjoint, so the order does not matter).
template <typename Fn>
void for_each_query(std::size_t nq, int threads, const Fn& fn) {
#ifdef _OPENMP
  if (threads > 1) {
#pragma omp parallel for num_threads(threads) schedule(dynamic)
    for (std::int64_t q = 0; q < static_cast<std::int64_t>(nq); ++q) {
      fn(static_cast<std::size_t>(q));
    }
    return;
  }
#endif
  (void)threads;
  for (std::size_t q = 0; q < nq; ++q) fn(q);
}

}  // namespace

BatchRunStats run_ssppr_batch(const DistGraphStorage& storage,
                              std::span<SspprState> states,
                              const DriverOptions& options,
                              PhaseTimers* timers) {
  PhaseTimers local_timers;
  PhaseTimers& t = timers != nullptr ? *timers : local_timers;
  const std::size_t nq = states.size();
  const auto ns = static_cast<std::size_t>(storage.num_shards());
  const ShardId self = storage.shard_id();

  BatchRunStats stats;
  stats.num_queries = nq;
  if (nq == 0) return stats;
  for (const SspprState& s : states) {
    GE_REQUIRE(s.source().shard == self,
               "owner-compute rule: every source must live on this shard");
  }

  BatchScratch scratch(nq, ns);
  FetchPipeline pipeline(storage);
  // One admission pin for the whole batch: every query of the lockstep
  // run reads the same graph version (DESIGN.md §15).
  pipeline.pin(storage.resolve_pin(options.graph_version));

  for (;;) {
    // --- Pop every query's frontier; stop once all are exhausted. ------
    bool any_active = false;
    {
      ScopedPhase phase(t, Phase::kPop);
      for (std::size_t q = 0; q < nq; ++q) {
        states[q].pop(scratch.node_ids[q], scratch.shard_ids[q]);
        if (!scratch.node_ids[q].empty()) any_active = true;
      }
    }
    if (!any_active) break;
    ++stats.num_iterations;
    obs::ScopedSpan round_span("ssppr.batch_round");
    if (round_span.active()) {
      // mode=dense / mode=sparse when the whole batch agrees, mode=mixed
      // when queries are in different representations this round.
      bool any_dense = false;
      bool any_sparse = false;
      for (const SspprState& s : states) {
        (s.dense_active() ? any_dense : any_sparse) = true;
      }
      round_span.annotate(any_dense && any_sparse
                              ? "mode=mixed"
                              : (any_dense ? "mode=dense" : "mode=sparse"));
    }
    scratch.begin_round(nq);
    pipeline.begin_round();

    // --- Cross-query dedup: every wanted vertex joins its shard's union
    // once, however many queries requested it.
    for (std::size_t q = 0; q < nq; ++q) {
      const auto& nids = scratch.node_ids[q];
      const auto& sids = scratch.shard_ids[q];
      for (std::size_t i = 0; i < nids.size(); ++i) {
        scratch.groups[q][static_cast<std::size_t>(sids[i])].push_back(i);
        pipeline.add(sids[i], nids[i]);
      }
    }

    // --- Per-query push fan-out, replaying the single-query driver's ---
    // push-call structure exactly (own shard, then halo hits per remote
    // shard ascending, then the non-halo rest) so results stay
    // bit-identical to independent runs.
    // push_group: one push call of query q's shard-j rows; halo_filter -1
    // takes the whole group, 0/1 only rows whose halo provenance matches.
    const auto push_group = [&](std::size_t q, std::size_t j,
                                int halo_filter) {
      const auto shard = static_cast<ShardId>(j);
      const auto& nids = scratch.node_ids[q];
      auto& buf = scratch.push[q];
      for (const std::size_t i : scratch.groups[q][j]) {
        const NodeId local = nids[i];
        const std::uint32_t row = pipeline.row_of(shard, local);
        if (halo_filter >= 0) {
          const bool is_halo = pipeline.source(shard, row) == RowSource::kHalo;
          if (static_cast<int>(is_halo) != halo_filter) continue;
        }
        buf.infos.push_back(pipeline.row(shard, row));
        buf.loc.push_back(local);
        buf.shv.push_back(shard);
      }
      if (buf.loc.empty()) return;
      states[q].push(buf.infos, buf.loc, buf.shv);
      buf.infos.clear();
      buf.loc.clear();
      buf.shv.clear();
    };
    const auto self_idx = static_cast<std::size_t>(self);
    // Own shard and halo hits only need rows resolved before the RPCs
    // return, so they run inside the overlap hook.
    const auto push_early = [&](std::size_t q) {
      push_group(q, self_idx, -1);
      for (std::size_t j = 0; j < ns; ++j) {
        if (j != self_idx) push_group(q, j, 1);
      }
    };
    const auto push_late = [&](std::size_t q) {
      for (std::size_t j = 0; j < ns; ++j) {
        if (j != self_idx) push_group(q, j, 0);
      }
    };
    const int qt =
        std::max(1, std::min(options.query_threads, static_cast<int>(nq)));
    const auto fan_out = [&](const auto& part) {
      ScopedPhase phase(t, Phase::kPush);
      for_each_query(nq, qt, part);
    };

    // --- One pipeline round resolves the whole union: halo/adjacency
    // splits and at most one RPC per remote shard; self-shard rows come
    // through shared memory and the early pushes run while responses are
    // in flight, the rest once they have arrived.
    pipeline.execute({options.compress, options.overlap, options.codec}, &t,
                     [&] { fan_out(push_early); });
    fan_out(push_late);
  }

  for (const SspprState& s : states) stats.num_pushes += s.num_pushes();
  static auto& batches =
      obs::MetricRegistry::global().counter("engine.ssppr.batches");
  static auto& rounds =
      obs::MetricRegistry::global().counter("engine.ssppr.batch_rounds");
  batches.add(1);
  rounds.add(stats.num_iterations);
  return stats;
}

}  // namespace ppr
