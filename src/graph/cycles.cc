#include "graph/cycles.h"

#include <unordered_map>

namespace krsp::graph {

bool is_simple_cycle(const Digraph& g, std::span<const EdgeId> edges) {
  if (edges.empty()) return false;
  const VertexId start = g.edge(edges.front()).from;
  VertexId at = start;
  // A repeated edge repeats its tail, so distinct tails suffice.
  std::vector<bool> seen(g.num_vertices(), false);
  for (const EdgeId e : edges) {
    if (!g.is_edge(e) || g.edge(e).from != at || seen[at]) return false;
    seen[at] = true;
    at = g.edge(e).to;
  }
  return at == start;
}

std::vector<Cycle> decompose_closed_walk(const Digraph& g,
                                         std::span<const EdgeId> walk) {
  std::vector<Cycle> cycles;
  if (walk.empty()) return cycles;
  const VertexId start = g.edge(walk.front()).from;
  KRSP_CHECK_MSG(is_walk(g, walk, start, start),
                 "decompose_closed_walk: input is not a closed walk");

  // Stack of edges of the current (simple) partial walk plus the position of
  // each vertex on that stack. Whenever the walk returns to a vertex already
  // on the stack, the edges above that position form a simple cycle.
  std::vector<EdgeId> stack;
  std::unordered_map<VertexId, int> pos_of;  // vertex -> index into stack
  pos_of[start] = 0;
  for (const EdgeId e : walk) {
    stack.push_back(e);
    const VertexId head = g.edge(e).to;
    const auto it = pos_of.find(head);
    if (it != pos_of.end()) {
      // Pop the cycle: stack[it->second .. end).
      Cycle cycle(stack.begin() + it->second, stack.end());
      // Remove popped vertices' positions (tails of popped edges, except the
      // repeated head itself which stays at its original position).
      for (const EdgeId pe : cycle) {
        const VertexId tail = g.edge(pe).from;
        if (tail != head) pos_of.erase(tail);
      }
      stack.resize(it->second);
      KRSP_DCHECK(is_simple_cycle(g, cycle));
      cycles.push_back(std::move(cycle));
    } else {
      pos_of[head] = static_cast<int>(stack.size());
    }
  }
  KRSP_CHECK_MSG(stack.empty(),
                 "decompose_closed_walk: leftover edges after decomposition");
  return cycles;
}

std::vector<Cycle> decompose_balanced_edge_set(const Digraph& g,
                                               std::span<const EdgeId> edges) {
  // Verify balance and index unused out-edges per vertex.
  std::unordered_map<VertexId, std::vector<EdgeId>> out;
  std::unordered_map<VertexId, int> degree;
  for (const EdgeId e : edges) {
    out[g.edge(e).from].push_back(e);
    ++degree[g.edge(e).from];
    --degree[g.edge(e).to];
  }
  for (const auto& [v, d] : degree)
    KRSP_CHECK_MSG(d == 0, "decompose_balanced_edge_set: vertex "
                               << v << " has degree imbalance " << d);

  std::vector<Cycle> cycles;
  // Hierholzer-style: trace closed walks until all edges are consumed, then
  // split each walk into simple cycles.
  for (const EdgeId seed : edges) {
    const VertexId start = g.edge(seed).from;
    if (out[start].empty()) continue;  // already consumed
    std::vector<EdgeId> walk;
    VertexId at = start;
    do {
      auto& avail = out[at];
      KRSP_CHECK_MSG(!avail.empty(),
                     "balanced edge set: stuck at vertex " << at);
      const EdgeId e = avail.back();
      avail.pop_back();
      walk.push_back(e);
      at = g.edge(e).to;
    } while (at != start);
    auto sub = decompose_closed_walk(g, walk);
    for (auto& c : sub) cycles.push_back(std::move(c));
  }
  return cycles;
}

}  // namespace krsp::graph
