// Minimum-cost flow via successive shortest paths: Dijkstra on reduced
// costs with Johnson potentials, each search stopped as soon as the sink is
// settled, over a residual network stored as one CSR.
//
// This is the engine behind phase 1 (Lemma 5): min-cost k-flows under the
// Lagrangian weight q·cost + p·delay are integral and computed exactly in
// 64-bit integer arithmetic. Arc costs must be non-negative (all phase-1
// weights are; residual negativity is handled by the potentials). After a
// search stops at t, every vertex's potential rises by min(dist(v),
// dist(t)), which keeps every residual reduced cost non-negative.
//
// A MinCostFlow instance is reusable: reset_flow() restores all capacities
// and set_arc_cost() retargets the objective, so a caller that solves the
// same network repeatedly under different weights (the LARAC iteration, the
// batch engine's repeat solves) pays for the arc structure once.
// McfWorkspace packages that reuse pattern for min_weight_unit_flow.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "graph/digraph.h"

namespace krsp::flow {

class MinCostFlow {
 public:
  explicit MinCostFlow(int num_vertices);

  /// Adds an arc; returns its handle, the number of arcs added before it.
  /// cost must be >= 0. Add every arc before the first solve(): the CSR
  /// residual network is built at the first solve(), reset_flow() or
  /// set_arc_cost(), and add_arc() after that throws util::CheckError.
  int add_arc(graph::VertexId from, graph::VertexId to, std::int64_t capacity,
              std::int64_t cost);

  /// Sends exactly `amount` units s→t at minimum cost. Returns the total
  /// cost, or nullopt if the max flow is smaller than `amount`.
  /// Call reset_flow() before solving the same network again. Throws
  /// util::CheckError when W = Σ capacity·cost exceeds INT64_MAX / 2, the
  /// range inside which no distance, potential or cost total can wrap.
  std::optional<std::int64_t> solve(graph::VertexId s, graph::VertexId t,
                                    std::int64_t amount);

  /// Restores every arc to its original capacity (drains all flow), making
  /// the instance solvable again without rebuilding the arc structure.
  void reset_flow();

  /// Re-prices arc `arc` (a handle from add_arc). cost must be >= 0.
  /// Call only on a drained network (construction time or after
  /// reset_flow()) so residual reverse arcs never carry stale prices.
  void set_arc_cost(int arc, std::int64_t cost);

  [[nodiscard]] std::int64_t flow_on(int arc) const;

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

  int num_vertices_ = 0;
  bool built_ = false;
  std::vector<Arc> arcs_;  // by handle, as added (cost kept current)
  // Residual network: the arcs leaving v are first_[v] .. first_[v+1]-1,
  // forward and reverse arcs interleaved in the order add_arc created
  // them; rev_ pairs each arc with its opposite, slot_ maps a handle to
  // its forward arc.
  std::vector<int> first_;
  std::vector<graph::VertexId> head_;
  std::vector<int> rev_;
  std::vector<std::int64_t> cap_;
  std::vector<std::int64_t> cost_;
  std::vector<int> slot_;
  // Dijkstra scratch reused across solve() calls.
  std::vector<std::int64_t> potential_;
  std::vector<std::int64_t> dist_;
  std::vector<int> parent_arc_;
  std::vector<std::pair<std::int64_t, graph::VertexId>> heap_;
};

/// Convenience: minimum-(linear weight) k edge-disjoint flow on a Digraph.
/// Sends k units with every graph edge given capacity 1 and cost
/// w_cost·cost(e) + w_delay·delay(e). Returns the used edge ids, or nullopt
/// if fewer than k disjoint paths exist. Throws util::CheckError when an
/// edge weight or their sum leaves the range MinCostFlow::solve accepts.
struct UnitFlowResult {
  std::vector<graph::EdgeId> edges;  // edges carrying one unit each
  std::int64_t weight = 0;           // total combined weight
};

/// Reusable network for min_weight_unit_flow: caches the MinCostFlow arc
/// structure of the last topology solved, keyed by a structural fingerprint
/// (vertex/edge counts + endpoints), so repeat solves on the same graph —
/// different weights, different (s, t, k) — only reset capacities and
/// re-price arcs instead of reallocating. Safe to hand a different graph:
/// the fingerprint mismatch triggers a rebuild. Not thread-safe; intended
/// as per-thread state (core::SolveWorkspace).
class McfWorkspace {
 public:
  /// Number of solves that hit the cached arc structure (telemetry).
  [[nodiscard]] std::uint64_t reuse_hits() const { return reuse_hits_; }
  [[nodiscard]] std::uint64_t rebuilds() const { return rebuilds_; }

 private:
  friend std::optional<UnitFlowResult> min_weight_unit_flow(
      const graph::Digraph& g, graph::VertexId s, graph::VertexId t, int k,
      std::int64_t w_cost, std::int64_t w_delay, McfWorkspace* ws);

  std::optional<MinCostFlow> mcf_;  // arc handle == edge id
  std::uint64_t fingerprint_ = 0;
  std::uint64_t reuse_hits_ = 0;
  std::uint64_t rebuilds_ = 0;
};

std::optional<UnitFlowResult> min_weight_unit_flow(const graph::Digraph& g,
                                                   graph::VertexId s,
                                                   graph::VertexId t, int k,
                                                   std::int64_t w_cost,
                                                   std::int64_t w_delay,
                                                   McfWorkspace* ws);

inline std::optional<UnitFlowResult> min_weight_unit_flow(
    const graph::Digraph& g, graph::VertexId s, graph::VertexId t, int k,
    std::int64_t w_cost, std::int64_t w_delay) {
  return min_weight_unit_flow(g, s, t, k, w_cost, w_delay, nullptr);
}

}  // namespace krsp::flow
