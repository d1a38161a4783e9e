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

/// One Dijkstra for both directions: from `root` over out_edges, recording
/// the parent tree in `parent`, or, without `parent`, toward the root over
/// in_edges (each edge relaxes its tail) until the first live entry beyond
/// `stop`'s distance, whose key then caps every entry. Ties pop in vertex
/// order from a source, which fixes the parent tree's tie-breaks; a search
/// toward the root serves distances, in any order.
std::vector<std::int64_t> run_dijkstra(const graph::Digraph& g,
                                       graph::VertexId root,
                                       const EdgeWeight& w,
                                       std::vector<graph::EdgeId>* parent,
                                       graph::VertexId stop) {
  KRSP_CHECK(g.is_vertex(root));
  const bool toward_root = parent == nullptr;
  KRSP_CHECK(!toward_root || g.is_vertex(stop));
  std::vector<std::int64_t> dist(g.num_vertices(), kUnreachable);
  dist[root] = 0;

  RadixHeap heap(/*order_ties=*/!toward_root);
  heap.push(0, root);
  while (!heap.empty()) {
    const auto [d, v] = heap.pop();
    if (d != dist[v]) continue;  // stale entry
    if (toward_root && d > dist[stop]) {
      // Every vertex no farther than `stop` is settled and every other one
      // is at least d away: d is the bound B.
      for (auto& x : dist) x = std::min(x, d);
      break;
    }
    for (const graph::EdgeId e :
         toward_root ? g.in_edges(v) : g.out_edges(v)) {
      const auto& edge = g.edge(e);
      const std::int64_t we = w(edge);
      KRSP_CHECK_MSG(we >= 0,
                     "dijkstra: negative weight " << we << " on edge " << e);
      const graph::VertexId u = toward_root ? edge.from : edge.to;
      const std::int64_t nd = d + we;
      if (nd < dist[u]) {
        dist[u] = nd;
        if (parent != nullptr) (*parent)[u] = e;
        heap.push(nd, u);
      }
    }
  }
  return dist;
}

}  // namespace

ShortestPathTree dijkstra(const graph::Digraph& g, graph::VertexId source,
                          const EdgeWeight& w) {
  ShortestPathTree tree;
  tree.parent.assign(g.num_vertices(), graph::kInvalidEdge);
  tree.dist = run_dijkstra(g, source, w, &tree.parent, graph::kInvalidVertex);
  return tree;
}

std::vector<std::int64_t> dijkstra_to(const graph::Digraph& g,
                                      graph::VertexId target,
                                      const EdgeWeight& w,
                                      graph::VertexId stop) {
  return run_dijkstra(g, target, w, nullptr, stop);
}

}  // namespace krsp::paths
