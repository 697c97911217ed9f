// SSPPR query state and the two PPR operators exposed by the engine
// (§3.3): pop (drain the activated vertex set) and push (apply residual
// propagation for a batch of sources given their neighbor info).
//
// The state keeps π (PPR estimates) and r (residuals, which also carry
// activated-set membership) in one of two interchangeable representations:
//
//   * sparse — sharded parallel hash maps keyed by packed
//     <local id, shard id> NodeRefs. Right when the activated set is a
//     tiny fraction of the graph (low ε, late rounds).
//   * dense — flat per-shard double arrays indexed by
//     shard_base[shard] + local, plus a frontier bitmap. Right when the
//     frontier approaches |V_core| (high ε, early rounds, large batches):
//     no hashing, no probing, cache-linear updates, and the inner loop
//     vectorizes (common/simd.hpp).
//
// The adaptive kernel (default) measures frontier density at every pop()
// and promotes once to dense, with an exact, loss-free copy, when the
// density first reaches dense_threshold; the state then stays dense until
// the query ends. Results are bit-identical under ANY switch schedule
// (the explicit promote_to_dense()/demote_to_sparse() calls included):
// both modes apply the same IEEE operations in the same (i, k) scan
// order, activation append order is preserved, and promotion/demotion
// moves values without arithmetic. The dense representation needs the
// cluster's shard sizes — bind_topology() / SspprOptions::
// shard_core_counts; without a topology the adaptive kernel stays sparse.
//
// Batched pushes above a size threshold run multi-threaded with the
// lock-free submap-partitioning scheme (each OpenMP thread exclusively
// owns keys with submap_index(key) % num_threads == tid). The dense mode
// uses the same ownership function, so per-thread activation lists — and
// therefore the merged activation order — match the sparse mode exactly.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "concurrent/sharded_map.hpp"
#include "rpc/buffer_pool.hpp"
#include "storage/shard.hpp"

namespace ppr {

/// Representation policy for the push loop.
enum class SspprKernel : std::uint8_t {
  kSparse = 0,    // always the sharded hash maps (the classic path)
  kDense = 1,     // always the flat arrays (requires a bound topology)
  kAdaptive = 2,  // per-round choice from measured frontier density
};

const char* kernel_name(SspprKernel k);

struct SspprOptions {
  double alpha = 0.462;      // teleport probability (paper's default)
  double epsilon = 1e-6;     // residual threshold
  int num_threads = 1;       // max threads for the push operator
  /// Use multi-threaded push only when the batch has at least this many
  /// source nodes (the paper's "simple strategy" for the OpenMP switch).
  std::size_t parallel_threshold = 64;
  int submap_bits = 6;       // 2^bits submaps per hash map
  /// Push-loop representation policy (see SspprKernel).
  SspprKernel kernel = SspprKernel::kAdaptive;
  /// Adaptive switch point: promote to dense the first time frontier
  /// density (|activated| / Σ shard_core_counts) reaches this; the state
  /// never demotes afterwards. The default sits below the measured
  /// sparse/dense crossover (bench_kernel_density) so the dense kernel
  /// captures most of its win.
  double dense_threshold = 0.005;
  /// Core-node count per shard (the dense layout). Usually filled by the
  /// engine from the cluster mapping; empty = no topology bound, dense
  /// unavailable.
  std::vector<NodeId> shard_core_counts{};
};

/// Per-node residual entry. in_frontier doubles as activated-set
/// membership so frontier insertion is one submap access.
struct Residual {
  double r = 0;
  bool in_frontier = false;
};

class SspprState {
 public:
  /// Start a query from `source` (which must be a core node of the shard
  /// that owns the query, per the owner-compute rule).
  SspprState(NodeRef source, SspprOptions options);

  /// Recycle this state for a fresh query from `source`: clears π, r, and
  /// the activated set but keeps every submap's allocated capacity and the
  /// dense arrays, so a pooled state serves many queries without
  /// reallocating (the batched throughput harness relies on this).
  void reset(NodeRef source);

  NodeRef source() const { return source_; }
  const SspprOptions& options() const { return options_; }

  /// Bind the cluster's per-shard core-node counts, sizing the dense
  /// layout. Idempotent for an identical topology; rebinding a different
  /// one is only legal while the state is sparse.
  void bind_topology(std::span<const NodeId> shard_core_counts);
  /// True when a topology is bound (the dense representation is usable).
  bool dense_capable() const { return universe_ != 0; }
  /// Σ shard_core_counts: the dense universe size.
  std::size_t dense_universe() const { return universe_; }

  /// PPR Op 1 — pop: return the current activated vertex set and clear it.
  /// Every returned node MUST be fed to push() before the next pop.
  /// This is the adaptive kernel's decision point: frontier density is
  /// measured here and a sparse state promoted for the coming round.
  void pop(std::vector<NodeId>& node_ids, std::vector<ShardId>& shard_ids);

  /// PPR Op 2 — push: apply one forward-push step to each source node
  /// `(node_ids[i], shard_ids[i])` whose neighborhood is `infos[i]`.
  /// Newly activated nodes (r > ε·d_w, not already queued) join the set.
  void push(std::span<const VertexProp> infos,
            std::span<const NodeId> node_ids,
            std::span<const ShardId> shard_ids);

  /// Overload for decoded remote responses: rows are read straight out of
  /// the batch's CSR arrays (no per-push materialization of a VertexProp
  /// vector — the core push is templated on a row accessor).
  void push(const NeighborBatch& batch, std::span<const NodeId> node_ids,
            std::span<const ShardId> shard_ids);

  /// Loss-free representation switches. Exact: every stored value moves
  /// bitwise, no arithmetic. Only legal at a round boundary (between a
  /// completed push group and the next pop). promote requires a bound
  /// topology; both are no-ops when already in the target representation.
  /// The adaptive kernel only ever promotes; demote_to_sparse() is for
  /// explicit callers.
  void promote_to_dense();
  void demote_to_sparse();

  /// True while the dense representation holds the state.
  bool dense_active() const { return dense_; }
  const char* kernel_mode_name() const { return dense_ ? "dense" : "sparse"; }
  /// Frontier density measured by the most recent pop() (0 when no
  /// topology is bound).
  double last_round_density() const { return last_density_; }
  std::size_t promotions() const { return promotions_; }
  std::size_t demotions() const { return demotions_; }

  bool frontier_empty() const { return activated_.empty(); }
  std::size_t frontier_size() const { return activated_.size(); }

  /// Total push operations applied (for the work-count ablations).
  std::size_t num_pushes() const { return num_pushes_; }

  /// Non-zero PPR estimates accumulated so far.
  std::vector<std::pair<NodeRef, double>> ppr_entries() const;
  /// Residual mass per node (diagnostics / invariant tests).
  std::vector<std::pair<NodeRef, double>> residual_entries() const;

  /// Dense |V| vector of PPR values indexed by original global node id.
  std::vector<double> to_dense(const GlobalMapping& mapping,
                               NodeId num_nodes) const;

  /// π-mass + r-mass; equals 1 up to float error at any point of the
  /// algorithm (mass-conservation invariant of forward push). Summed in
  /// canonical ascending-key order (π before r per node) in BOTH
  /// representations, so the value is bit-identical across kernel modes
  /// and switch schedules.
  double total_mass() const;

  /// Pool recycling the per-push round scratch (rv + the dense kernel's
  /// SIMD precompute rows). Separate from BufferPool::global() (the wire
  /// path's pool) so each plane's zero-allocation property is auditable
  /// on its own; registered as `ppr.scratch_pool.*`.
  static BufferPool& scratch_pool();

 private:
  /// Core push, templated on `row(i) -> VertexProp` so span-of-props and
  /// NeighborBatch inputs share one zero-copy implementation.
  template <typename RowFn>
  void push_rows(RowFn&& row, std::span<const NodeId> node_ids,
                 std::span<const ShardId> shard_ids);

  /// Flat index of a core node in the dense arrays.
  std::size_t slot_for(ShardId shard, NodeId local) const {
    GE_CHECK(static_cast<std::uint32_t>(shard) < shard_counts_.size() &&
                 static_cast<std::uint32_t>(local) <
                     static_cast<std::uint32_t>(
                         shard_counts_[static_cast<std::size_t>(shard)]),
             "node outside the bound dense topology");
    return shard_base_[static_cast<std::size_t>(shard)] +
           static_cast<std::size_t>(local);
  }
  std::size_t slot_for_key(std::uint64_t key) const {
    const NodeRef ref = NodeRef::from_key(key);
    return slot_for(ref.shard, ref.local);
  }

  bool frontier_bit(std::size_t slot) const {
    return (frontier_bits_[slot >> 6] >> (slot & 63)) & 1u;
  }

  void seed(NodeRef source);
  void ensure_dense_storage();
  void record_pop_metrics() const;

  NodeRef source_;
  SspprOptions options_;
  ShardedMap<double> pi_;
  ShardedMap<Residual> residual_;
  std::vector<std::uint64_t> activated_;
  std::size_t num_pushes_ = 0;

  // Dense representation (allocated lazily at first promotion, then kept
  // for the state's lifetime). Invariant: all-zero whenever dense_ is
  // false, so promotion is a plain copy-in.
  bool dense_ = false;
  std::vector<NodeId> shard_counts_;
  std::vector<std::size_t> shard_base_;  // prefix sums; back() == universe_
  std::size_t universe_ = 0;
  std::vector<double> dense_pi_;
  std::vector<double> dense_r_;
  std::vector<std::uint64_t> frontier_bits_;
  double last_density_ = 0.0;
  std::size_t promotions_ = 0;
  std::size_t demotions_ = 0;

  // Per-thread activation lists for the multi-threaded push, merged in
  // thread-id order after the parallel region so the activation order is
  // deterministic (and identical between the sparse and dense kernels).
  std::vector<std::vector<std::uint64_t>> mt_activated_;
};

}  // namespace ppr
