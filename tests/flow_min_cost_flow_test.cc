#include "flow/min_cost_flow.h"

#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "flow/dinic.h"
#include "graph/generators.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "util/rng.h"

namespace krsp::flow {
namespace {

using graph::Digraph;

TEST(MinCostFlow, SingleCheapestPathChosen) {
  MinCostFlow mcf(3);
  mcf.add_arc(0, 1, 1, 2);
  mcf.add_arc(1, 2, 1, 2);
  mcf.add_arc(0, 2, 1, 10);
  const auto cost = mcf.solve(0, 2, 1);
  ASSERT_TRUE(cost.has_value());
  EXPECT_EQ(*cost, 4);
}

TEST(MinCostFlow, SecondUnitTakesPricierRoute) {
  MinCostFlow mcf(3);
  mcf.add_arc(0, 1, 1, 2);
  mcf.add_arc(1, 2, 1, 2);
  mcf.add_arc(0, 2, 1, 10);
  const auto cost = mcf.solve(0, 2, 2);
  ASSERT_TRUE(cost.has_value());
  EXPECT_EQ(*cost, 14);
}

TEST(MinCostFlow, InsufficientCapacityIsNullopt) {
  MinCostFlow mcf(2);
  mcf.add_arc(0, 1, 1, 1);
  EXPECT_FALSE(mcf.solve(0, 1, 2).has_value());
}

TEST(MinCostFlow, RespectsArcFlowsAndConservation) {
  MinCostFlow mcf(4);
  const int a = mcf.add_arc(0, 1, 2, 1);
  const int b = mcf.add_arc(0, 2, 2, 2);
  const int c = mcf.add_arc(1, 3, 2, 1);
  const int d = mcf.add_arc(2, 3, 2, 2);
  const auto cost = mcf.solve(0, 3, 3);
  ASSERT_TRUE(cost.has_value());
  EXPECT_EQ(*cost, 2 * 2 + 1 * 4);
  EXPECT_EQ(mcf.flow_on(a), 2);
  EXPECT_EQ(mcf.flow_on(b), 1);
  EXPECT_EQ(mcf.flow_on(c), 2);
  EXPECT_EQ(mcf.flow_on(d), 1);
}

TEST(MinCostFlow, RerouteThroughResidualIsCheaper) {
  // Classic case where unit 2 must push flow back across unit 1's path.
  MinCostFlow mcf(4);
  mcf.add_arc(0, 1, 1, 1);
  mcf.add_arc(1, 3, 1, 1);
  mcf.add_arc(0, 2, 1, 1);
  mcf.add_arc(2, 1, 1, 0);
  mcf.add_arc(2, 3, 1, 10);
  mcf.add_arc(1, 2, 1, 0);
  const auto cost = mcf.solve(0, 3, 2);
  ASSERT_TRUE(cost.has_value());
  // Both pairings cost 13: {0-1-3, 0-2-3} or {0-2-1-3, 0-1-2-3}; the
  // point of the test is that the residual reroute is *considered* and the
  // optimum (13) is returned rather than a greedy-blocked failure.
  EXPECT_EQ(*cost, 13);
}

// All arcs, then solve: the layout is built once, and an arc added after
// that is refused rather than silently dropping the flow.
TEST(MinCostFlow, ArcAddedAfterFirstSolveIsRejected) {
  MinCostFlow mcf(2);
  mcf.add_arc(0, 1, 1, 3);
  EXPECT_EQ(mcf.flow_on(0), 0);
  ASSERT_EQ(mcf.solve(0, 1, 1), std::optional<std::int64_t>{3});
  EXPECT_THROW(mcf.add_arc(0, 1, 1, 1), util::CheckError);
  EXPECT_EQ(mcf.num_arcs(), 1);
  EXPECT_EQ(mcf.flow_on(0), 1);
}

TEST(MinCostFlow, NegativeCostArcRejected) {
  MinCostFlow mcf(2);
  EXPECT_THROW(mcf.add_arc(0, 1, 1, -3), util::CheckError);
}

// Property: MCMF value equals the LP optimum of the arc-flow formulation
// (integrality of the flow polytope), solved with our simplex.
TEST(MinCostFlow, PropertyMatchesLpRelaxation) {
  util::Rng rng(151);
  for (int trial = 0; trial < 12; ++trial) {
    const auto g = gen::erdos_renyi(rng, 7, 0.4);
    const int k = 2;
    if (max_edge_disjoint_paths(g, 0, 6) < k) continue;

    MinCostFlow mcf(g.num_vertices());
    for (const auto& e : g.edges()) mcf.add_arc(e.from, e.to, 1, e.cost);
    const auto mcmf_cost = mcf.solve(0, 6, k);
    ASSERT_TRUE(mcmf_cost.has_value());

    lp::LpModel model;
    for (const auto& e : g.edges())
      model.add_variable(static_cast<double>(e.cost), 0.0, 1.0);
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
      std::vector<lp::LinearTerm> terms;
      for (const graph::EdgeId e : g.out_edges(v)) terms.push_back({e, 1.0});
      for (const graph::EdgeId e : g.in_edges(v)) terms.push_back({e, -1.0});
      const double rhs = v == 0 ? k : (v == 6 ? -k : 0);
      model.add_constraint(std::move(terms), lp::Relation::kEq, rhs);
    }
    const auto lp_solution = lp::SimplexSolver().solve(model);
    ASSERT_EQ(lp_solution.status, lp::LpStatus::kOptimal);
    EXPECT_NEAR(lp_solution.objective, static_cast<double>(*mcmf_cost), 1e-6);
  }
}

TEST(MinWeightUnitFlow, ReturnsEdgesOfKDisjointPaths) {
  Digraph g(4);
  g.add_edge(0, 1, 1, 1);
  g.add_edge(1, 3, 1, 1);
  g.add_edge(0, 2, 2, 1);
  g.add_edge(2, 3, 2, 1);
  const auto f = min_weight_unit_flow(g, 0, 3, 2, 1, 0);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->edges.size(), 4u);
  EXPECT_EQ(f->weight, 6);
}

TEST(MinWeightUnitFlow, NulloptWhenNotEnoughPaths) {
  Digraph g(3);
  g.add_edge(0, 1, 1, 1);
  g.add_edge(1, 2, 1, 1);
  EXPECT_FALSE(min_weight_unit_flow(g, 0, 2, 2, 1, 0).has_value());
}

// A graph with no edges is valid input; its network still gets an (empty)
// layout, so the search finds no path, on a fresh and on a reused network.
TEST(MinWeightUnitFlow, EdgelessGraphIsNulloptWithAndWithoutWorkspace) {
  const Digraph g(2);
  EXPECT_FALSE(min_weight_unit_flow(g, 0, 1, 1, 1, 0).has_value());
  McfWorkspace ws;
  for (int round = 0; round < 2; ++round)
    EXPECT_FALSE(min_weight_unit_flow(g, 0, 1, 1, 1, 0, &ws).has_value());
  EXPECT_EQ(ws.rebuilds(), 1u);
  EXPECT_EQ(ws.reuse_hits(), 1u);
}

// --- Property sweep against a reference with no potentials, no early stop.

constexpr std::int64_t kRefInf = std::numeric_limits<std::int64_t>::max();

struct RefArc {
  graph::VertexId from;
  graph::VertexId to;
  std::int64_t cap;
  std::int64_t cost;
};

// Successive shortest paths with Bellman–Ford on an explicit residual arc
// list (entry 2i is arc i, 2i+1 its reverse). Minimum cost of `amount`
// units s→t, or nullopt if the max flow is smaller.
std::optional<std::int64_t> reference_min_cost(int n,
                                               const std::vector<RefArc>& arcs,
                                               graph::VertexId s,
                                               graph::VertexId t,
                                               std::int64_t amount) {
  std::vector<RefArc> res;
  for (const RefArc& a : arcs) {
    res.push_back(a);
    res.push_back(RefArc{a.to, a.from, 0, -a.cost});
  }
  std::int64_t total = 0;
  for (std::int64_t remaining = amount; remaining > 0;) {
    std::vector<std::int64_t> dist(n, kRefInf);
    std::vector<int> via(n, -1);
    dist[s] = 0;
    bool changed = true;
    for (int round = 0; round < n && changed; ++round) {
      changed = false;
      for (int j = 0; j < static_cast<int>(res.size()); ++j) {
        const RefArc& a = res[j];
        if (a.cap > 0 && dist[a.from] != kRefInf &&
            dist[a.from] + a.cost < dist[a.to]) {
          dist[a.to] = dist[a.from] + a.cost;
          via[a.to] = j;
          changed = true;
        }
      }
    }
    if (dist[t] == kRefInf) return std::nullopt;
    std::int64_t push = remaining;
    for (graph::VertexId v = t; v != s; v = res[via[v]].from)
      push = std::min(push, res[via[v]].cap);
    for (graph::VertexId v = t; v != s; v = res[via[v]].from) {
      res[via[v]].cap -= push;
      res[via[v] ^ 1].cap += push;
      total += res[via[v]].cost * push;
    }
    remaining -= push;
  }
  return total;
}

// Random multigraph on 4–40 vertices with parallel arcs and self-loops,
// cost and delay in {0, 1, 2}: many equal-weight optima.
Digraph tie_heavy_multigraph(util::Rng& rng, int max_n) {
  const auto n = static_cast<int>(rng.uniform_int(4, max_n));
  Digraph g(n);
  const auto m = rng.uniform_int(2 * n, 6 * n);
  for (std::int64_t i = 0; i < m; ++i) {
    auto u = static_cast<graph::VertexId>(rng.uniform_int(0, n - 1));
    auto v = static_cast<graph::VertexId>(rng.uniform_int(0, n - 1));
    if (i > 0 && rng.bernoulli(0.2)) {  // parallel to an earlier arc
      const auto& e =
          g.edge(static_cast<graph::EdgeId>(rng.uniform_int(0, i - 1)));
      u = e.from;
      v = e.to;
    } else if (rng.bernoulli(0.05)) {
      v = u;  // self-loop
    }
    const auto cost = rng.uniform_int(0, 2);
    g.add_edge(u, v, cost, rng.uniform_int(0, 2));
  }
  return g;
}

struct UnitQuery {
  int topology;
  graph::VertexId s;
  graph::VertexId t;
  int k;
  std::int64_t w_cost;
  std::int64_t w_delay;
};

// 200 topologies × 8 queries: random (s, t), k in 1–3, and weight pairs
// from pure cost to phase 1's lexicographic prices.
struct UnitSweep {
  std::vector<Digraph> graphs;
  std::vector<UnitQuery> queries;
};

UnitSweep make_unit_sweep() {
  util::Rng rng(1601);
  UnitSweep sweep;
  for (int topo = 0; topo < 200; ++topo) {
    sweep.graphs.push_back(tie_heavy_multigraph(rng, 40));
    const Digraph& g = sweep.graphs.back();
    const std::pair<std::int64_t, std::int64_t> weights[] = {
        {1, 0}, {0, 1}, {1, 1}, {2, 1}, {3, 2},
        {g.total_delay() + 1, 1}, {1, g.total_cost() + 1}};
    for (int q = 0; q < 8; ++q) {
      const int n = g.num_vertices();
      const auto s = static_cast<graph::VertexId>(rng.uniform_int(0, n - 1));
      auto t = static_cast<graph::VertexId>(rng.uniform_int(0, n - 2));
      if (t >= s) ++t;
      const auto& [w_cost, w_delay] = weights[rng.uniform_int(0, 6)];
      sweep.queries.push_back(UnitQuery{topo, s, t,
                                        static_cast<int>(rng.uniform_int(1, 3)),
                                        w_cost, w_delay});
    }
  }
  return sweep;
}

TEST(MinWeightUnitFlow, PropertyTieHeavySweepMatchesBellmanFordReference) {
  const UnitSweep sweep = make_unit_sweep();
  int feasible = 0;
  for (const UnitQuery& q : sweep.queries) {
    const Digraph& g = sweep.graphs[q.topology];
    const auto weight = [&](const graph::Edge& e) {
      return q.w_cost * e.cost + q.w_delay * e.delay;
    };
    std::vector<RefArc> arcs;
    for (const auto& e : g.edges())
      arcs.push_back(RefArc{e.from, e.to, 1, weight(e)});
    const auto want =
        reference_min_cost(g.num_vertices(), arcs, q.s, q.t, q.k);
    const auto got =
        min_weight_unit_flow(g, q.s, q.t, q.k, q.w_cost, q.w_delay);
    ASSERT_EQ(got.has_value(), want.has_value()) << g.summary();
    if (!got) continue;
    ++feasible;
    EXPECT_EQ(got->weight, *want) << g.summary();
    // The returned edges are a flow of k units with the reported weight.
    std::vector<std::int64_t> net(g.num_vertices(), 0);
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < got->edges.size(); ++i) {
      const graph::EdgeId e = got->edges[i];
      ASSERT_TRUE(e >= 0 && e < g.num_edges());
      if (i > 0) {
        ASSERT_LT(got->edges[i - 1], e);  // each edge used once
      }
      ++net[g.edge(e).from];
      --net[g.edge(e).to];
      sum += weight(g.edge(e));
    }
    EXPECT_EQ(sum, got->weight);
    for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
      EXPECT_EQ(net[v], v == q.s ? q.k : (v == q.t ? -q.k : 0));
  }
  EXPECT_GT(feasible, 800);
}

TEST(MinWeightUnitFlow, PropertySharedWorkspaceInShuffledOrderIsIdentical) {
  const UnitSweep sweep = make_unit_sweep();
  std::vector<std::optional<UnitFlowResult>> fresh;
  for (const UnitQuery& q : sweep.queries)
    fresh.push_back(min_weight_unit_flow(sweep.graphs[q.topology], q.s, q.t,
                                         q.k, q.w_cost, q.w_delay));
  // Each topology's queries in two blocks of 4; the blocks are shuffled so
  // the workspace switches topology often and revisits each one later.
  std::vector<int> blocks(sweep.queries.size() / 4);
  for (std::size_t b = 0; b < blocks.size(); ++b)
    blocks[b] = static_cast<int>(b);
  util::Rng rng(1603);
  for (std::size_t i = blocks.size() - 1; i > 0; --i)
    std::swap(blocks[i],
              blocks[rng.uniform_int(0, static_cast<std::int64_t>(i))]);
  McfWorkspace ws;
  for (const int b : blocks) {
    for (int i = 4 * b; i < 4 * b + 4; ++i) {
      const UnitQuery& q = sweep.queries[i];
      const auto got = min_weight_unit_flow(sweep.graphs[q.topology], q.s, q.t,
                                            q.k, q.w_cost, q.w_delay, &ws);
      ASSERT_EQ(got.has_value(), fresh[i].has_value()) << "query " << i;
      if (!got) continue;
      EXPECT_EQ(got->edges, fresh[i]->edges) << "query " << i;
      EXPECT_EQ(got->weight, fresh[i]->weight) << "query " << i;
    }
  }
  EXPECT_GT(ws.rebuilds(), 300u);
  EXPECT_GT(ws.reuse_hits(), 1000u);
}

TEST(MinCostFlow, PropertyCapacitatedSweepMatchesBellmanFordReference) {
  util::Rng rng(1607);
  int feasible = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const Digraph shape = tie_heavy_multigraph(rng, 16);
    const int n = shape.num_vertices();
    std::vector<RefArc> arcs;
    MinCostFlow mcf(n);
    for (const auto& e : shape.edges()) {
      arcs.push_back(RefArc{e.from, e.to, rng.uniform_int(1, 3), e.cost});
      mcf.add_arc(e.from, e.to, arcs.back().cap, arcs.back().cost);
    }
    const auto s = static_cast<graph::VertexId>(rng.uniform_int(0, n - 1));
    auto t = static_cast<graph::VertexId>(rng.uniform_int(0, n - 2));
    if (t >= s) ++t;
    const std::int64_t amount = rng.uniform_int(1, 4);
    const auto want = reference_min_cost(n, arcs, s, t, amount);
    const auto got = mcf.solve(s, t, amount);
    ASSERT_EQ(got.has_value(), want.has_value()) << shape.summary();
    if (!got) continue;
    ++feasible;
    EXPECT_EQ(*got, *want) << shape.summary();
    std::vector<std::int64_t> net(n, 0);
    std::int64_t sum = 0;
    for (int a = 0; a < static_cast<int>(arcs.size()); ++a) {
      const std::int64_t f = mcf.flow_on(a);
      ASSERT_TRUE(f >= 0 && f <= arcs[a].cap);
      net[arcs[a].from] += f;
      net[arcs[a].to] -= f;
      sum += f * arcs[a].cost;
    }
    EXPECT_EQ(sum, *got);
    for (graph::VertexId v = 0; v < n; ++v)
      EXPECT_EQ(net[v], v == s ? amount : (v == t ? -amount : 0));
  }
  EXPECT_GT(feasible, 200);
}

// The search stays exact up to W = Σ capacity·cost = INT64_MAX / 2 and
// refuses anything larger instead of wrapping.
TEST(MinCostFlow, TotalWeightBoundIsInclusiveAndNamedWhenExceeded) {
  constexpr std::int64_t kHalf = std::numeric_limits<std::int64_t>::max() / 2;
  MinCostFlow at_bound(3);
  at_bound.add_arc(0, 1, 1, kHalf - 1);
  at_bound.add_arc(1, 2, 1, 1);
  const auto cost = at_bound.solve(0, 2, 1);
  ASSERT_TRUE(cost.has_value());
  EXPECT_EQ(*cost, kHalf);

  MinCostFlow over(3);
  over.add_arc(0, 1, 1, kHalf);
  over.add_arc(1, 2, 1, 1);
  try {
    (void)over.solve(0, 2, 1);
    FAIL() << "expected a CheckError";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("overflow"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace krsp::flow
