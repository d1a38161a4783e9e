// Min-sum k edge-disjoint paths (Suurballe's problem, [20, 21] in the
// paper): k disjoint s→t paths minimizing a linear weight with no budget
// constraint. Polynomially solvable via min-cost flow; the delay-oblivious
// and cost-oblivious baselines and the phase-1 Lagrangian all route
// through here.
#pragma once

#include <optional>
#include <vector>

#include "flow/min_cost_flow.h"
#include "graph/digraph.h"

namespace krsp::flow {

struct DisjointPaths {
  std::vector<std::vector<graph::EdgeId>> paths;
  graph::Cost total_cost = 0;
  graph::Delay total_delay = 0;
};

/// k edge-disjoint s→t paths minimizing w_cost·Σcost + w_delay·Σdelay, or
/// nullopt if fewer than k edge-disjoint paths exist. Weights must be
/// non-negative multipliers. `ws` (optional) keeps the flow network across
/// calls on the same topology — the LARAC iteration and the batch engine's
/// repeat solves become allocation-free on the MCMF side. `sink` (optional,
/// t's distances on g) makes the flow's searches goal-directed; see
/// McfWorkspace::min_weight_flow.
std::optional<DisjointPaths> min_weight_disjoint_paths(
    const graph::Digraph& g, graph::VertexId s, graph::VertexId t, int k,
    std::int64_t w_cost, std::int64_t w_delay, McfWorkspace* ws = nullptr,
    const SinkDistances* sink = nullptr);

}  // namespace krsp::flow
