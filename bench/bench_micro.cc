// Experiment E8 — substrate microbenchmarks (google-benchmark).
//
// Throughput of the building blocks: Dijkstra, Bellman–Ford, Dinic, MCMF,
// residual construction, auxiliary-graph construction, the bicameral
// product-graph search, and the simplex.
#include <benchmark/benchmark.h>

#include "core/aux_graph.h"
#include "core/bicameral.h"
#include "core/residual.h"
#include "flow/dinic.h"
#include "flow/disjoint.h"
#include "graph/generators.h"
#include "lp/simplex.h"
#include "paths/bellman_ford.h"
#include "paths/dijkstra.h"
#include "util/rng.h"

namespace {

using namespace krsp;

graph::Digraph make_graph(int n) {
  util::Rng rng(12345);
  return gen::erdos_renyi(rng, n, std::min(0.9, 6.0 / n));
}

void BM_Dijkstra(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        paths::dijkstra(g, 0, paths::EdgeWeight::cost()));
  }
}
BENCHMARK(BM_Dijkstra)->Arg(64)->Arg(256)->Arg(1024);

void BM_BellmanFord(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        paths::bellman_ford(g, 0, paths::EdgeWeight::cost()));
  }
}
BENCHMARK(BM_BellmanFord)->Arg(64)->Arg(256);

void BM_DinicUnitCaps(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        flow::max_edge_disjoint_paths(g, 0, g.num_vertices() - 1));
  }
}
BENCHMARK(BM_DinicUnitCaps)->Arg(64)->Arg(256)->Arg(1024);

void BM_MinCostKFlow(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(flow::min_weight_disjoint_paths(
        g, 0, g.num_vertices() - 1, 3, 1, 1));
  }
}
BENCHMARK(BM_MinCostKFlow)->Arg(64)->Arg(256)->Arg(1024);

void BM_ResidualBuild(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)));
  const auto f =
      flow::min_weight_disjoint_paths(g, 0, g.num_vertices() - 1, 2, 1, 0);
  std::vector<graph::EdgeId> edges;
  if (f)
    for (const auto& p : f->paths)
      edges.insert(edges.end(), p.begin(), p.end());
  for (auto _ : state) {
    core::ResidualGraph residual(g, edges);
    benchmark::DoNotOptimize(residual.digraph().num_edges());
  }
}
BENCHMARK(BM_ResidualBuild)->Arg(64)->Arg(256);

void BM_AuxGraphBuild(benchmark::State& state) {
  const auto g = make_graph(32);
  const auto budget = state.range(0);
  for (auto _ : state) {
    core::AuxiliaryGraph aux(g, 0, budget, true);
    benchmark::DoNotOptimize(aux.digraph().num_edges());
  }
}
BENCHMARK(BM_AuxGraphBuild)->Arg(8)->Arg(32)->Arg(128);

// Bicameral search over capped/uncapped queries. range(0) = n;
// range(1): 0 = capped, 1 = uncapped.
void BM_BicameralSearch(benchmark::State& state) {
  util::Rng rng(777);
  const auto g = gen::erdos_renyi(rng, static_cast<int>(state.range(0)),
                                  std::min(0.9, 5.0 / state.range(0)));
  const auto f =
      flow::min_weight_disjoint_paths(g, 0, g.num_vertices() - 1, 2, 1, 0);
  if (!f) {
    state.SkipWithError("instance lacks 2 disjoint paths");
    return;
  }
  std::vector<graph::EdgeId> edges;
  for (const auto& p : f->paths) edges.insert(edges.end(), p.begin(), p.end());
  const core::ResidualGraph residual(g, edges);
  core::BicameralQuery q;
  q.cap = 20;
  q.ratio = util::Rational(-1, 4);
  q.enforce_cap = state.range(1) == 0;
  const core::BicameralCycleFinder finder;
  for (auto _ : state) {
    benchmark::DoNotOptimize(finder.find(residual, q));
  }
}
BENCHMARK(BM_BicameralSearch)
    ->ArgNames({"n", "uncapped"})
    // Capped (the production query shape) across sizes.
    ->Args({12, 0})
    ->Args({20, 0})
    ->Args({32, 0})
    // Uncapped (budget schedule runs to the total-cost clamp).
    ->Args({20, 1})
    ->Args({32, 1});

void BM_SimplexNetworkLp(benchmark::State& state) {
  const auto g = make_graph(static_cast<int>(state.range(0)));
  lp::LpModel model;
  for (const auto& e : g.edges())
    model.add_variable(static_cast<double>(e.cost), 0.0, 1.0);
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    std::vector<lp::LinearTerm> terms;
    for (const graph::EdgeId e : g.out_edges(v)) terms.push_back({e, 1.0});
    for (const graph::EdgeId e : g.in_edges(v)) terms.push_back({e, -1.0});
    const double rhs = v == 0 ? 2 : (v == g.num_vertices() - 1 ? -2 : 0);
    model.add_constraint(std::move(terms), lp::Relation::kEq, rhs);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::SimplexSolver().solve(model));
  }
}
BENCHMARK(BM_SimplexNetworkLp)->Arg(16)->Arg(32);

}  // namespace

BENCHMARK_MAIN();
