#include "core/residual.h"

#include "graph/cycles.h"

namespace krsp::core {

ResidualGraph::ResidualGraph(const graph::Digraph& g,
                             const std::vector<graph::EdgeId>& flow_edges)
    : original_(g) {
  rebuild(flow_edges);
}

void ResidualGraph::rebuild(const std::vector<graph::EdgeId>& flow_edges) {
  const graph::Digraph& g = original_;
  in_flow_.assign(g.num_edges(), false);
  for (const graph::EdgeId e : flow_edges) {
    KRSP_CHECK_MSG(g.is_edge(e), "flow edge " << e << " is not an edge");
    KRSP_CHECK_MSG(!in_flow_[e], "duplicate edges in flow set");
    in_flow_[e] = true;
  }
  residual_.clear_edges();
  residual_.resize(g.num_vertices());
  negative_arcs_.clear();
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto& edge = g.edge(e);
    if (in_flow_[e]) {
      residual_.add_edge(edge.to, edge.from, -edge.cost, -edge.delay);
    } else {
      residual_.add_edge(edge.from, edge.to, edge.cost, edge.delay);
    }
    const auto& r = residual_.edge(e);
    if (r.cost < 0 || r.delay < 0) negative_arcs_.push_back(e);
  }
}

graph::Cost ResidualGraph::cycle_cost(
    std::span<const graph::EdgeId> residual_edges) const {
  return graph::path_cost(residual_, residual_edges);
}

graph::Delay ResidualGraph::cycle_delay(
    std::span<const graph::EdgeId> residual_edges) const {
  return graph::path_delay(residual_, residual_edges);
}

std::vector<graph::EdgeId> ResidualGraph::apply_cycle(
    std::span<const graph::EdgeId> residual_cycle) const {
  // Traversing residual edge e flips e's flow bit: a forward edge joins F,
  // a reversed one leaves it. A second use of e would flip it back.
  auto next = in_flow_;
  for (const graph::EdgeId e : residual_cycle) {
    KRSP_CHECK(residual_.is_edge(e));
    KRSP_CHECK_MSG(next[e] == in_flow_[e],
                   "residual cycle uses edge " << e << " twice");
    next[e] = !next[e];
  }
  std::vector<graph::EdgeId> out;
  for (graph::EdgeId e = 0; e < residual_.num_edges(); ++e)
    if (next[e]) out.push_back(e);
  return out;
}

std::vector<std::vector<graph::EdgeId>> difference_cycles(
    const ResidualGraph& residual, const std::vector<graph::EdgeId>& target) {
  const int m = residual.digraph().num_edges();
  std::vector<bool> in_target(m, false);
  for (const graph::EdgeId e : target) {
    KRSP_CHECK(residual.digraph().is_edge(e));
    in_target[e] = true;
  }
  // Current-only edges are traversed backwards (reversed residual edges),
  // target-only edges forwards; edges in both or neither drop out.
  std::vector<graph::EdgeId> edges;
  for (graph::EdgeId e = 0; e < m; ++e)
    if (residual.is_reversed(e) != in_target[e]) edges.push_back(e);
  return graph::decompose_balanced_edge_set(residual.digraph(), edges);
}

}  // namespace krsp::core
