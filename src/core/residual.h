// Residual graph of Definition 6 and the ⊕ cycle-cancellation step of
// Proposition 7.
//
// Given the current solution's edge set F (the union of k disjoint paths),
// the residual graph G̃ contains every non-flow edge forward with its
// original weights and every flow edge reversed with *negated* cost and
// delay — unlike the zero-cost reversal of [12, 18], which is exactly the
// novelty the bicameral machinery addresses. A residual cycle O applied via
// F ⊕ O yields a new union of k disjoint paths whose cost/delay shift by
// (c(O), d(O)).
//
// Residual edge ids equal original edge ids: residual edge e is original
// edge e, forward or reversed, so one flow bit per edge is the whole
// mapping.
#pragma once

#include <vector>

#include "core/instance.h"
#include "core/path_set.h"
#include "graph/digraph.h"

namespace krsp::core {

class ResidualGraph {
 public:
  /// Builds G̃ for graph g with respect to the flow edge set `flow_edges`
  /// (must be a subset of g's edges; typically PathSet::all_edges()).
  ResidualGraph(const graph::Digraph& g,
                const std::vector<graph::EdgeId>& flow_edges);

  /// Rebuilds G̃ in place for a new flow edge set of the same original
  /// graph, reusing the residual digraph's storage. The cancellation driver
  /// calls this once per iteration instead of constructing a fresh
  /// ResidualGraph.
  void rebuild(const std::vector<graph::EdgeId>& flow_edges);

  [[nodiscard]] const graph::Digraph& digraph() const { return residual_; }

  /// True iff residual edge `e` is a reversed (negated) flow edge, i.e.
  /// original edge `e` is in the flow set.
  [[nodiscard]] bool is_reversed(graph::EdgeId e) const { return in_flow_[e]; }

  /// Residual edges with cost < 0 or delay < 0, ascending by edge id,
  /// maintained incrementally by rebuild. Every Definition-10-qualifying
  /// cycle contains at least one of these arcs (its negative total cost or
  /// delay needs a negative term), which is what lets the bicameral finder
  /// seed its anchored DPs at their endpoints instead of scanning all n
  /// vertices — see core/bicameral.cc and DESIGN.md §3.
  [[nodiscard]] std::span<const graph::EdgeId> negative_arcs() const {
    return negative_arcs_;
  }

  /// Cost/delay of a residual edge set (already sign-adjusted).
  [[nodiscard]] graph::Cost cycle_cost(
      std::span<const graph::EdgeId> residual_edges) const;
  [[nodiscard]] graph::Delay cycle_delay(
      std::span<const graph::EdgeId> residual_edges) const;

  /// F ⊕ O: applies a residual cycle to the flow edge set this residual was
  /// built from and returns the new flow edge set, ascending. KRSP_CHECKs
  /// that the cycle uses each residual edge at most once.
  [[nodiscard]] std::vector<graph::EdgeId> apply_cycle(
      std::span<const graph::EdgeId> residual_cycle) const;

 private:
  const graph::Digraph& original_;
  std::vector<bool> in_flow_;  // per edge id: in F, hence reversed in G̃
  graph::Digraph residual_;
  std::vector<graph::EdgeId> negative_arcs_;
};

/// The cycle system {P*} ⊕ {P̄} of Proposition 8: the symmetric difference
/// of the flow edge set `residual` was built from and `target`, expressed
/// as residual edges and decomposed into edge-disjoint simple cycles. Used
/// by tests (Prop. 8 / Lemma 9).
std::vector<std::vector<graph::EdgeId>> difference_cycles(
    const ResidualGraph& residual, const std::vector<graph::EdgeId>& target);

}  // namespace krsp::core
