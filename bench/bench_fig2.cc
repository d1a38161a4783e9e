// Experiment F2 — Figure 2 of the paper.
//
// Walks through the auxiliary-graph construction on the running example:
// (a) the base graph with current path s-x-y-z-t, (b) its residual graph
// (Definition 6), (c) H_x^+(B) for B = 6 (Algorithm 2), and the bicameral
// cycle the finder extracts from it.
//
// Usage: bench_fig2
#include <iostream>

#include "core/aux_graph.h"
#include "core/bicameral.h"
#include "core/residual.h"
#include "graph/generators.h"
#include "util/cli.h"
#include "util/table.h"

namespace {

constexpr char kUsage[] = "usage: bench_fig2";

int run(int argc, char** argv) {
  using namespace krsp;
  const util::Cli cli(argc, argv);
  cli.reject_unknown();

  const auto fig = gen::figure2_example();
  const char* names = "sxyzt";

  std::cout << "F2: Figure-2 walkthrough — auxiliary graph construction\n\n";
  std::cout << "(a) base graph G (current path s-x-y-z-t):\n";
  util::Table ga({"edge", "from", "to", "cost", "delay", "on current path"});
  for (graph::EdgeId e = 0; e < fig.graph.num_edges(); ++e) {
    const auto& edge = fig.graph.edge(e);
    const bool on_path =
        std::find(fig.current_path.begin(), fig.current_path.end(), e) !=
        fig.current_path.end();
    ga.row()
        .cell(e)
        .cell(names[edge.from])
        .cell(names[edge.to])
        .cell(edge.cost)
        .cell(edge.delay)
        .cell(on_path ? "yes" : "no");
  }
  ga.print();

  const core::ResidualGraph residual(fig.graph, fig.current_path);
  std::cout << "\n(b) residual graph G~ (Definition 6 — path edges reversed, "
               "weights negated):\n";
  util::Table gb({"edge", "from", "to", "cost", "delay", "reversed"});
  for (graph::EdgeId e = 0; e < residual.digraph().num_edges(); ++e) {
    const auto& edge = residual.digraph().edge(e);
    gb.row()
        .cell(e)
        .cell(names[edge.from])
        .cell(names[edge.to])
        .cell(edge.cost)
        .cell(edge.delay)
        .cell(residual.is_reversed(e) ? "yes" : "no");
  }
  gb.print();

  const core::AuxiliaryGraph aux(residual.digraph(), fig.x, fig.budget, true);
  std::cout << "\n(c) auxiliary graph H_x^+(B = " << fig.budget
            << ") per Algorithm 2:\n";
  std::cout << "    |V(H)| = " << aux.digraph().num_vertices() << " (= n*(B+1) = 5*7)"
            << ", |E(H)| = " << aux.digraph().num_edges() << "\n";
  int closing = 0;
  for (graph::EdgeId e = 0; e < aux.digraph().num_edges(); ++e)
    if (aux.base_edge_of(e) == graph::kInvalidEdge) ++closing;
  std::cout << "    structural arcs: " << aux.digraph().num_edges() - closing
            << ", anchor closing arcs: " << closing << "\n";

  core::BicameralQuery query;
  query.cap = fig.budget;
  query.ratio = util::Rational(-1, 1);
  core::BicameralStats stats;
  const auto found = core::BicameralCycleFinder().find(residual, query, &stats);
  KRSP_CHECK(found.has_value());
  std::cout << "\nBicameral cycle extracted from H (Algorithm 3): cost "
            << found->cost << ", delay " << found->delay << ", type "
            << static_cast<int>(found->type) << "\n    edges:";
  for (const auto e : found->edges) {
    const auto& edge = residual.digraph().edge(e);
    std::cout << ' ' << names[edge.from] << "->" << names[edge.to];
  }
  std::cout << "\n    (anchors scanned " << stats.anchors_scanned
            << ", walks examined " << stats.walks_examined << ")\n";
  std::cout << "\nExpected shape: the positive-cost (0 < c <= B) delay-"
               "reducing cycle x->z->y->x with cost 1, delay -6 is found.\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return krsp::util::run_tool(kUsage, [&] { return run(argc, argv); });
}
