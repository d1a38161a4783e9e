// Minimum-cost flow via successive shortest paths: Dijkstra on reduced
// costs with Johnson potentials, each search stopped as soon as the sink is
// settled, over a residual network stored as one CSR.
//
// This is the engine behind phase 1 (Lemma 5): min-cost k-flows under the
// Lagrangian weight q·cost + p·delay are integral and computed exactly in
// 64-bit integer arithmetic. Arc costs must be non-negative (all phase-1
// weights are; residual negativity is handled by the potentials).
//
// Goal direction: a caller that knows a lower bound h(v) on every vertex's
// distance to t (consistent: h(u) <= cost(u,v) + h(v) on every arc with
// capacity, h(t) = 0) passes it to solve(), which starts from the
// potential -h. Every search is then an A* search toward t: it settles only
// vertices whose distance from s plus h stays within the s→t distance, and
// it never enters a vertex that cannot reach t (h above W marks those; no
// augmenting path can use them, because flow only ever runs on arcs whose
// head reaches t). Without h the potentials start at 0.
//
// After a search stops at t with distance dist(t), each settled vertex's
// potential falls by dist(t) - dist(v) and every other potential stays:
// the textbook update (each rises by min(dist(v), dist(t))) minus the
// constant dist(t), so reduced costs, and every result, are the same, while
// the update touches only the vertices the search reached.
//
// Range argument, with W = Σ capacity·cost over all arcs: h(v) <= W for a
// vertex that can reach t (a simple path's cost); in the textbook update
// potentials start in [-W, 0] and never fall, and none passes π(t), which
// equals the current s→t distance minus h(s), in [0, W]; so they stay in
// [-W, W], and the shifted potentials kept here, π(v) - π(t), in [-2W, 0].
// Reduced costs lie in [-3W, 3W]; a tentative distance is a residual walk's
// cost plus π(s) - π(w), in [0, 2W]; the flow's cost stays in [0, W].
// W <= INT64_MAX / 4 keeps all of it exact. Above that bound solve() uses
// h ≡ 0, where potentials stay in [-W, 0] and reduced costs in [-2W, 2W],
// and W <= INT64_MAX / 2 suffices; above that solve() refuses the network.
//
// A MinCostFlow instance is reusable: each solve() first undoes the flow of
// the one before (only the arcs its augmenting paths used), and reprice()
// retargets the objective in one sequential pass over the arcs, which also
// checks that they are still the graph's edges, so a caller that solves the
// same network repeatedly under different weights (the LARAC iteration,
// the batch engine's repeat solves) pays for the arc structure once.
// Residual arcs read their cost from the arc they belong to, so re-pricing
// writes one value per arc. McfWorkspace packages that reuse pattern for
// min_weight_unit_flow.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "graph/digraph.h"
#include "paths/dijkstra.h"

namespace krsp::flow {

class MinCostFlow {
 public:
  explicit MinCostFlow(int num_vertices);

  /// Adds an arc; returns its handle, the number of arcs added before it.
  /// cost must be >= 0. Add every arc before the first solve(): the CSR
  /// residual network is built there, and add_arc() after that throws
  /// util::CheckError.
  int add_arc(graph::VertexId from, graph::VertexId to, std::int64_t capacity,
              std::int64_t cost);

  /// Removes every arc and sets the vertex count, keeping the allocated
  /// storage: a network rebuilt for another graph of about the same size
  /// allocates nothing.
  void clear(int num_vertices);

  /// Sends exactly `amount` units s→t at minimum cost, starting from no
  /// flow. Returns the total cost, or nullopt if the max flow is smaller
  /// than `amount`.
  /// `sink_distance`, when not empty, holds h(v) for every vertex as the
  /// header describes (a value above W marks a vertex that cannot reach t)
  /// and makes every search goal-directed; it is ignored when W exceeds
  /// INT64_MAX / 4. Throws util::CheckError when W = Σ capacity·cost
  /// exceeds INT64_MAX / 2.
  std::optional<std::int64_t> solve(
      graph::VertexId s, graph::VertexId t, std::int64_t amount,
      std::span<const std::int64_t> sink_distance = {});

  /// Re-prices the arcs as g's edges in one pass: arc `a` (a handle) gets
  /// cost cost_of(edge a), which must be >= 0. The same pass sums W; like
  /// add_arc, it leaves an overflowing W for the next solve() to report, so
  /// an error cost_of throws for any arc comes first. Returns false when
  /// the arcs are not g's edges (another vertex or arc count or, arc by
  /// arc, other endpoints); the prices are then partial, and the caller
  /// rebuilds the network.
  template <class CostOf>
  [[nodiscard]] bool reprice(const graph::Digraph& g, CostOf&& cost_of);

  [[nodiscard]] std::int64_t flow_on(int arc) const;

  /// Vertices on the augmenting paths of the last solve(), with repeats:
  /// every arc carrying flow leaves one of them.
  [[nodiscard]] std::span<const graph::VertexId> path_vertices() const {
    return path_vertices_;
  }
  /// Vertices settled by the searches of the last solve() (t included).
  [[nodiscard]] std::int64_t vertices_settled() const { return settled_; }

  [[nodiscard]] int num_vertices() const { return num_vertices_; }
  [[nodiscard]] int num_arcs() const { return static_cast<int>(arcs_.size()); }

 private:
  struct Arc {
    graph::VertexId from;
    graph::VertexId to;
    std::int64_t cap;
    std::int64_t cost;
  };

  /// Lays arcs_ out as the CSR below, once.
  void build();
  /// Adds capacity·cost to W, noting an overflow instead of wrapping.
  void add_to_total_weight(std::int64_t capacity, std::int64_t cost) {
    std::int64_t term = 0;
    total_weight_overflowed_ |=
        __builtin_mul_overflow(capacity, cost, &term) ||
        __builtin_add_overflow(total_weight_, term, &total_weight_);
  }
  /// Undoes every augmentation since the last drain.
  void drain();
  /// Cost of residual arc i: its arc's cost, negated on a reverse arc.
  [[nodiscard]] std::int64_t residual_cost(int i) const {
    const int a = arc_[i];
    return a >= 0 ? arcs_[a].cost : -arcs_[~a].cost;
  }

  int num_vertices_ = 0;
  bool built_ = false;
  std::vector<Arc> arcs_;  // by handle, as added (cost kept current)
  std::int64_t total_weight_ = 0;  // W, valid unless it overflowed
  bool total_weight_overflowed_ = false;
  // Residual network: the arcs leaving v are first_[v] .. first_[v+1]-1,
  // forward and reverse arcs interleaved in the order add_arc created
  // them; rev_ pairs each arc with its opposite, arc_ names its handle a
  // (~a on the reverse arc), slot_ maps a handle to its forward arc.
  std::vector<int> first_;
  std::vector<graph::VertexId> head_;
  std::vector<int> rev_;
  std::vector<std::int64_t> cap_;
  std::vector<int> arc_;
  std::vector<int> slot_;
  // (residual arc, amount) of every augmentation since the last drain.
  std::vector<std::pair<int, std::int64_t>> pushed_;
  // Search scratch reused across solve() calls; dist_ is kInf outside a
  // search, touched_ lists the vertices a search gave a distance.
  std::vector<std::int64_t> potential_;
  std::vector<std::int64_t> dist_;
  std::vector<int> parent_arc_;
  std::vector<graph::VertexId> touched_;
  paths::RadixHeap heap_{/*order_ties=*/true};
  std::vector<graph::VertexId> path_vertices_;
  std::int64_t settled_ = 0;
};

template <class CostOf>
bool MinCostFlow::reprice(const graph::Digraph& g, CostOf&& cost_of) {
  if (num_vertices() != g.num_vertices() || num_arcs() != g.num_edges())
    return false;
  total_weight_ = 0;
  total_weight_overflowed_ = false;
  const auto edges = g.edges();
  for (int a = 0; a < num_arcs(); ++a) {
    Arc& arc = arcs_[a];
    if (arc.from != edges[a].from || arc.to != edges[a].to) return false;
    const std::int64_t cost = cost_of(edges[a]);
    KRSP_CHECK_MSG(cost >= 0, "MinCostFlow requires non-negative arc costs");
    arc.cost = cost;
    add_to_total_weight(arc.cap, cost);
  }
  return true;
}

/// Convenience: minimum-(linear weight) k edge-disjoint flow on a Digraph.
/// Sends k units with every graph edge given capacity 1 and cost
/// w_cost·cost(e) + w_delay·delay(e). Returns the used edge ids, or nullopt
/// if fewer than k disjoint paths exist. Throws util::CheckError when an
/// edge weight or their sum leaves the range MinCostFlow::solve accepts.
struct UnitFlowResult {
  std::vector<graph::EdgeId> edges;  // edges carrying one unit each
  std::int64_t weight = 0;           // total combined weight
};

class McfWorkspace;
class SinkDistances;

/// `sink` (optional, built for t on g) makes the searches goal-directed and
/// collects their settled-vertex count; without it they search as
/// MinCostFlow does with h ≡ 0. `ws` (optional) reuses the network.
std::optional<UnitFlowResult> min_weight_unit_flow(
    const graph::Digraph& g, graph::VertexId s, graph::VertexId t, int k,
    std::int64_t w_cost, std::int64_t w_delay, McfWorkspace* ws,
    SinkDistances* sink = nullptr);

/// Each vertex's cost distance and delay distance to one sink, computed once
/// (two reverse Dijkstras) and shared by a series of min_weight_unit_flow
/// calls toward that sink under different weights (phase 1's LARAC run):
/// for weights (w_cost, w_delay), w_cost·cost + w_delay·delay is a
/// consistent lower bound on every vertex's distance to the sink, which
/// makes each call's searches goal-directed. Also counts the vertices those
/// searches settle. g's Σcost and Σdelay must fit in int64 (phase 1 checks
/// them first): they bound every distance, so the searches cannot overflow.
class SinkDistances {
 public:
  SinkDistances(const graph::Digraph& g, graph::VertexId sink);

  [[nodiscard]] graph::VertexId sink() const { return sink_; }
  /// paths::kUnreachable where the sink cannot be reached.
  [[nodiscard]] const std::vector<graph::Cost>& cost() const { return cost_; }
  [[nodiscard]] const std::vector<graph::Delay>& delay() const {
    return delay_;
  }
  /// Vertices settled by the searches of every call given this object.
  [[nodiscard]] std::int64_t vertices_settled() const { return settled_; }

 private:
  friend std::optional<UnitFlowResult> min_weight_unit_flow(
      const graph::Digraph& g, graph::VertexId s, graph::VertexId t, int k,
      std::int64_t w_cost, std::int64_t w_delay, McfWorkspace* ws,
      SinkDistances* sink);

  graph::VertexId sink_;
  std::vector<graph::Cost> cost_;
  std::vector<graph::Delay> delay_;
  std::vector<std::int64_t> combined_;  // per-call scratch for solve()
  std::int64_t settled_ = 0;
};

/// Reusable network for min_weight_unit_flow: caches the MinCostFlow arc
/// structure of the last topology solved, so repeat solves on the same
/// graph — different weights, different (s, t, k) — only re-price arcs
/// instead of reallocating. Each call's re-pricing pass compares the
/// cached arcs' endpoints with the graph's edges exactly, and the network
/// is rebuilt in place on any difference. Not thread-safe; intended as
/// per-thread state (core::SolveWorkspace).
class McfWorkspace {
 public:
  /// Number of solves that ran on a network built for an earlier solve.
  [[nodiscard]] std::uint64_t reuse_hits() const { return reuse_hits_; }
  /// Number of networks built.
  [[nodiscard]] std::uint64_t rebuilds() const { return rebuilds_; }

 private:
  friend std::optional<UnitFlowResult> min_weight_unit_flow(
      const graph::Digraph& g, graph::VertexId s, graph::VertexId t, int k,
      std::int64_t w_cost, std::int64_t w_delay, McfWorkspace* ws,
      SinkDistances* sink);

  std::optional<MinCostFlow> mcf_;  // arc handle == edge id
  std::uint64_t reuse_hits_ = 0;
  std::uint64_t rebuilds_ = 0;
};

inline std::optional<UnitFlowResult> min_weight_unit_flow(
    const graph::Digraph& g, graph::VertexId s, graph::VertexId t, int k,
    std::int64_t w_cost, std::int64_t w_delay) {
  return min_weight_unit_flow(g, s, t, k, w_cost, w_delay, nullptr);
}

}  // namespace krsp::flow
