#include "paths/dijkstra.h"

#include <algorithm>

namespace krsp::paths {

std::vector<graph::EdgeId> ShortestPathTree::path_to(
    const graph::Digraph& g, graph::VertexId v) const {
  KRSP_CHECK_MSG(reached(v), "path_to on unreached vertex " << v);
  std::vector<graph::EdgeId> path;
  while (parent[v] != graph::kInvalidEdge) {
    const graph::EdgeId e = parent[v];
    path.push_back(e);
    v = g.edge(e).from;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

namespace {

/// One Dijkstra for both directions: from `root` over out_edges, or with
/// `toward_root` toward it over in_edges (each edge relaxes its tail). Ties
/// pop in vertex order from a source, which fixes the parent tree's
/// tie-breaks; a search toward the root serves distances, in any order.
ShortestPathTree run_dijkstra(const graph::Digraph& g, graph::VertexId root,
                              const EdgeWeight& w,
                              const std::vector<std::int64_t>* potential,
                              bool toward_root) {
  KRSP_CHECK(g.is_vertex(root));
  const int n = g.num_vertices();
  ShortestPathTree tree;
  tree.dist.assign(n, kUnreachable);
  tree.parent.assign(n, graph::kInvalidEdge);
  tree.dist[root] = 0;

  RadixHeap heap(/*order_ties=*/!toward_root);
  heap.push(0, root);
  while (!heap.empty()) {
    const auto [d, v] = heap.pop();
    if (d != tree.dist[v]) continue;  // stale entry
    for (const graph::EdgeId e :
         toward_root ? g.in_edges(v) : g.out_edges(v)) {
      const auto& edge = g.edge(e);
      std::int64_t we = w(edge);
      if (potential != nullptr)
        we += (*potential)[edge.from] - (*potential)[edge.to];
      KRSP_CHECK_MSG(we >= 0, "dijkstra: negative (reduced) weight "
                                  << we << " on edge " << e);
      const graph::VertexId u = toward_root ? edge.from : edge.to;
      const std::int64_t nd = d + we;
      if (nd < tree.dist[u]) {
        tree.dist[u] = nd;
        tree.parent[u] = e;
        heap.push(nd, u);
      }
    }
  }
  return tree;
}

}  // namespace

ShortestPathTree dijkstra(const graph::Digraph& g, graph::VertexId source,
                          const EdgeWeight& w) {
  return run_dijkstra(g, source, w, nullptr, false);
}

ShortestPathTree dijkstra_to(const graph::Digraph& g, graph::VertexId target,
                             const EdgeWeight& w) {
  return run_dijkstra(g, target, w, nullptr, true);
}

ShortestPathTree dijkstra_with_potentials(
    const graph::Digraph& g, graph::VertexId source, const EdgeWeight& w,
    const std::vector<std::int64_t>& potential) {
  KRSP_CHECK(static_cast<int>(potential.size()) == g.num_vertices());
  return run_dijkstra(g, source, w, &potential, false);
}

}  // namespace krsp::paths
