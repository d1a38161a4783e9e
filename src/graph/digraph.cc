#include "graph/digraph.h"

#include <algorithm>
#include <cstdlib>
#include <sstream>

namespace krsp::graph {

Cost Digraph::total_cost() const {
  Cost sum = 0;
  for (const auto& e : edges_) sum = util::checked_add(sum, e.cost, "Σcost");
  return sum;
}

Delay Digraph::total_delay() const {
  Delay sum = 0;
  for (const auto& e : edges_)
    sum = util::checked_add(sum, e.delay, "Σdelay");
  return sum;
}

Cost Digraph::max_abs_cost() const {
  Cost best = 0;
  for (const auto& e : edges_) best = std::max(best, std::abs(e.cost));
  return best;
}

Delay Digraph::max_abs_delay() const {
  Delay best = 0;
  for (const auto& e : edges_) best = std::max(best, std::abs(e.delay));
  return best;
}

Digraph Digraph::reversed() const {
  Digraph r(num_vertices());
  for (const auto& e : edges_) r.add_edge(e.to, e.from, e.cost, e.delay);
  return r;
}

std::string Digraph::summary() const {
  std::ostringstream os;
  os << "Digraph(n=" << num_vertices() << ", m=" << num_edges() << ")";
  return os.str();
}

Cost path_cost(const Digraph& g, std::span<const EdgeId> edges) {
  Cost sum = 0;
  for (const EdgeId e : edges) sum += g.edge(e).cost;
  return sum;
}

Delay path_delay(const Digraph& g, std::span<const EdgeId> edges) {
  Delay sum = 0;
  for (const EdgeId e : edges) sum += g.edge(e).delay;
  return sum;
}

bool is_walk(const Digraph& g, std::span<const EdgeId> edges, VertexId from,
             VertexId to) {
  if (edges.empty()) return from == to;
  VertexId at = from;
  for (const EdgeId e : edges) {
    if (!g.is_edge(e) || g.edge(e).from != at) return false;
    at = g.edge(e).to;
  }
  return at == to;
}

bool is_simple_path(const Digraph& g, std::span<const EdgeId> edges,
                    VertexId from, VertexId to) {
  if (!is_walk(g, edges, from, to)) return false;
  if (edges.empty()) return true;
  // A repeated edge repeats its head, so distinct heads (and none equal to
  // `from`) suffice.
  std::vector<bool> seen(g.num_vertices(), false);
  seen[from] = true;
  for (const EdgeId e : edges) {
    const VertexId head = g.edge(e).to;
    if (seen[head]) return false;
    seen[head] = true;
  }
  return true;
}

}  // namespace krsp::graph
