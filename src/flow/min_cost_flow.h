// Minimum-weight unit-capacity flow via successive shortest paths: Dijkstra
// on reduced costs with Johnson potentials, each search stopped as soon as
// the sink is settled, over a residual network stored as one CSR.
//
// This is the engine behind phase 1 (Lemma 5): every edge of the graph is
// an arc of capacity 1, so a flow of k units is k edge-disjoint paths, and
// min-cost k-flows under the Lagrangian weight q·cost + p·delay are
// integral and computed exactly in 64-bit integer arithmetic. Arc weights
// must be non-negative (all phase-1 weights are; residual negativity is
// handled by the potentials).
//
// Goal direction: a caller that knows each vertex's cost and delay distance
// to t, or a consistent lower bound on it (SinkDistances; phase 1 passes
// min(distance, B) from reverse searches stopped past s, see
// paths::dijkstra_to), passes them along; for the call's weights,
// h(v) = w_cost·dist_cost(v) + w_delay·dist_delay(v) is a consistent lower
// bound on v's weight to t (h(u) <= weight(u,v) + h(v) on every arc,
// h(t) = 0), and the potentials start at -h. Every search is then an A*
// search toward t: it settles only vertices whose distance from s plus h
// stays within the s→t distance, and it never enters a vertex known not to
// reach t. Such a vertex is dead: its cost distance is kUnreachable (only a
// reverse search that ran out gives that), or its h overflows or exceeds W.
// A vertex that reaches t is never dead, because its h is at most its
// weight to t, at most W; no augmenting path can use a dead vertex, because
// flow only ever runs on arcs whose head reaches t. Without distances the
// potentials start at 0.
//
// After a search stops at t with distance dist(t), each settled vertex's
// potential falls by dist(t) - dist(v) and every other potential stays:
// the textbook update (each rises by min(dist(v), dist(t))) minus the
// constant dist(t), so reduced costs, and every result, are the same, while
// the update touches only the vertices the search reached.
//
// Range argument, with W = Σ arc weights: h(v) <= W for every vertex that
// is not dead (the rule above), so in the textbook update potentials start
// in [-W, 0] and never fall, and none passes π(t), which equals the current
// s→t distance minus h(s), in [0, W]; so they stay in [-W, W], and the
// shifted potentials kept here, π(v) - π(t), in [-2W, 0]. Reduced costs lie
// in [-3W, 3W]; a tentative distance is a residual walk's weight plus
// π(s) - π(w), in [0, 2W]; the flow's weight stays in [0, W].
// W <= INT64_MAX / 4 keeps all of it exact. Above that bound the distances
// are ignored (h ≡ 0), potentials stay in [-W, 0] and reduced costs in
// [-2W, 2W], and W <= INT64_MAX / 2 suffices; above that the network is
// refused. h(v) of a vertex that reaches t is at most W, so it can only
// overflow on a dead vertex or when W does.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/digraph.h"
#include "paths/dijkstra.h"

namespace krsp::flow {

/// Each vertex's cost distance and delay distance to one sink t, or a
/// consistent lower bound on it, paths::kUnreachable only where t cannot be
/// reached: what two paths::dijkstra_to searches return. Phase 1 computes
/// them once per run, stopped past s, and passes them to every
/// min_weight_flow call toward t.
struct SinkDistances {
  std::vector<graph::Cost> cost;
  std::vector<graph::Delay> delay;
};

/// The flow network of the last graph solved, reusable across calls: a
/// call on a graph with the same topology (the LARAC iteration, the batch
/// engine's repeat solves) re-prices the arcs and checks the topology, arc
/// by arc, in one pass, undoes only the previous call's augmentations, and
/// allocates nothing; on any difference the network is rebuilt. Every
/// call counts in the process-wide `krsp_mcmf_calls_total` metric and
/// every network built in `krsp_mcmf_network_builds_total`.
/// Not thread-safe; intended as per-thread state (core::SolveWorkspace).
class McfWorkspace {
 public:
  /// The edges, in ascending order, of a minimum-weight flow of k units
  /// s→t in which every edge of g carries at most one unit and weighs
  /// w_cost·cost(e) + w_delay·delay(e); nullopt if fewer than k
  /// edge-disjoint paths exist. `sink`, when given, holds t's distances on
  /// g (or consistent lower bounds on them) and makes every search
  /// goal-directed; it is ignored when W exceeds INT64_MAX / 4. Throws
  /// util::CheckError when an edge weight is negative or overflows, and
  /// when W overflows or exceeds INT64_MAX / 2, in that order.
  std::optional<std::vector<graph::EdgeId>> min_weight_flow(
      const graph::Digraph& g, graph::VertexId s, graph::VertexId t, int k,
      std::int64_t w_cost, std::int64_t w_delay,
      const SinkDistances* sink = nullptr);

  /// Vertices settled by the searches of the last call (t included).
  [[nodiscard]] std::int64_t vertices_settled() const { return settled_; }
  /// Number of calls that ran on a network built for an earlier call.
  [[nodiscard]] std::uint64_t reuse_hits() const { return reuse_hits_; }
  /// Number of networks built.
  [[nodiscard]] std::uint64_t rebuilds() const { return rebuilds_; }

 private:
  struct Arc {
    graph::VertexId from;
    graph::VertexId to;
    std::int64_t weight;
  };

  /// Re-prices the arcs as g's edges and sums W in one pass; false when
  /// the network is not g's (another vertex or arc count or, arc by arc,
  /// other endpoints), leaving the prices partial.
  bool reprice(const graph::Digraph& g, std::int64_t w_cost,
               std::int64_t w_delay);
  /// Lays out the network for g, arc id = edge id, with no flow and
  /// unpriced arcs.
  void build(const graph::Digraph& g);
  /// Adds an arc weight to W, noting an overflow instead of wrapping.
  void add_to_total_weight(std::int64_t weight) {
    total_weight_overflowed_ |=
        __builtin_add_overflow(total_weight_, weight, &total_weight_);
  }
  /// Weight of residual arc i: its arc's weight, negated on a reverse arc.
  [[nodiscard]] std::int64_t residual_weight(int i) const {
    const int a = arc_[i];
    return a >= 0 ? arcs_[a].weight : -arcs_[~a].weight;
  }

  std::vector<Arc> arcs_;          // by edge id, weights of the last call
  std::int64_t total_weight_ = 0;  // W, valid unless it overflowed
  bool total_weight_overflowed_ = false;
  // Residual network: the arcs leaving v are first_[v] .. first_[v+1]-1,
  // each edge's forward arc before its reverse arc, in edge-id order (empty
  // until a network is built); rev_ pairs each arc with its opposite, arc_
  // names its edge e (~e on the reverse arc), cap_ is 1 or 0.
  std::vector<int> first_;
  std::vector<graph::VertexId> head_;
  std::vector<int> rev_;
  std::vector<int> arc_;
  std::vector<std::uint8_t> cap_;
  // Residual arcs pushed by the last call, one unit each.
  std::vector<int> pushed_;
  // Search scratch; dist_ is kInf outside a search, touched_ lists the
  // vertices a search gave a distance.
  std::vector<std::int64_t> potential_;
  std::vector<std::int64_t> dist_;
  std::vector<int> parent_arc_;
  std::vector<graph::VertexId> touched_;
  paths::RadixHeap heap_{/*order_ties=*/true};
  std::int64_t settled_ = 0;
  std::uint64_t reuse_hits_ = 0;
  std::uint64_t rebuilds_ = 0;
};

}  // namespace krsp::flow
