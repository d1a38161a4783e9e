#include "flow/min_cost_flow.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "flow/dinic.h"
#include "graph/generators.h"
#include "lp/model.h"
#include "lp/simplex.h"
#include "paths/dijkstra.h"
#include "util/rng.h"

namespace krsp::flow {
namespace {

using graph::Digraph;

// Weight of a flow's edges under w_cost·cost + w_delay·delay.
std::int64_t flow_weight(const Digraph& g,
                         const std::vector<graph::EdgeId>& edges,
                         std::int64_t w_cost = 1, std::int64_t w_delay = 0) {
  std::int64_t sum = 0;
  for (const graph::EdgeId e : edges)
    sum += w_cost * g.edge(e).cost + w_delay * g.edge(e).delay;
  return sum;
}

// Two routes 0→1→2 (2 + 2) and 0→2 (10), by cost.
Digraph two_routes() {
  Digraph g(3);
  g.add_edge(0, 1, 2, 0);
  g.add_edge(1, 2, 2, 0);
  g.add_edge(0, 2, 10, 0);
  return g;
}

TEST(MinCostFlow, SingleCheapestPathChosen) {
  const Digraph g = two_routes();
  const auto f = McfWorkspace().min_weight_flow(g, 0, 2, 1, 1, 0);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(flow_weight(g, *f), 4);
}

TEST(MinCostFlow, SecondUnitTakesPricierRoute) {
  const Digraph g = two_routes();
  const auto f = McfWorkspace().min_weight_flow(g, 0, 2, 2, 1, 0);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(flow_weight(g, *f), 14);
}

TEST(MinCostFlow, InsufficientCapacityIsNullopt) {
  Digraph g(2);
  g.add_edge(0, 1, 1, 0);
  EXPECT_FALSE(McfWorkspace().min_weight_flow(g, 0, 1, 2, 1, 0).has_value());
}

TEST(MinCostFlow, RerouteThroughResidualIsCheaper) {
  // Classic case where unit 2 must push flow back across unit 1's path.
  Digraph g(4);
  g.add_edge(0, 1, 1, 0);
  g.add_edge(1, 3, 1, 0);
  g.add_edge(0, 2, 1, 0);
  g.add_edge(2, 1, 0, 0);
  g.add_edge(2, 3, 10, 0);
  g.add_edge(1, 2, 0, 0);
  const auto f = McfWorkspace().min_weight_flow(g, 0, 3, 2, 1, 0);
  ASSERT_TRUE(f.has_value());
  // Both pairings cost 13: {0-1-3, 0-2-3} or {0-2-1-3, 0-1-2-3}; the
  // point of the test is that the residual reroute is *considered* and the
  // optimum (13) is returned rather than a greedy-blocked failure.
  EXPECT_EQ(flow_weight(g, *f), 13);
}

TEST(MinCostFlow, NegativeCostArcRejected) {
  Digraph g(2);
  g.add_edge(0, 1, -3, 0);
  EXPECT_THROW((void)McfWorkspace().min_weight_flow(g, 0, 1, 1, 1, 0),
               util::CheckError);
}

// Property: MCMF value equals the LP optimum of the arc-flow formulation
// (integrality of the flow polytope), solved with our simplex.
TEST(MinCostFlow, PropertyMatchesLpRelaxation) {
  util::Rng rng(151);
  for (int trial = 0; trial < 12; ++trial) {
    const auto g = gen::erdos_renyi(rng, 7, 0.4);
    const int k = 2;
    if (max_edge_disjoint_paths(g, 0, 6) < k) continue;

    const auto flow = McfWorkspace().min_weight_flow(g, 0, 6, k, 1, 0);
    ASSERT_TRUE(flow.has_value());

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
    EXPECT_NEAR(lp_solution.objective,
                static_cast<double>(flow_weight(g, *flow)), 1e-6);
  }
}

TEST(MinWeightUnitFlow, ReturnsEdgesOfKDisjointPaths) {
  Digraph g(4);
  g.add_edge(0, 1, 1, 1);
  g.add_edge(1, 3, 1, 1);
  g.add_edge(0, 2, 2, 1);
  g.add_edge(2, 3, 2, 1);
  const auto f = McfWorkspace().min_weight_flow(g, 0, 3, 2, 1, 0);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->size(), 4u);
  EXPECT_EQ(flow_weight(g, *f), 6);
}

TEST(MinWeightUnitFlow, NulloptWhenNotEnoughPaths) {
  Digraph g(3);
  g.add_edge(0, 1, 1, 1);
  g.add_edge(1, 2, 1, 1);
  EXPECT_FALSE(McfWorkspace().min_weight_flow(g, 0, 2, 2, 1, 0).has_value());
}

// A graph with no edges is valid input; its network still gets an (empty)
// layout, so the search finds no path, on a fresh and on a reused network.
TEST(MinWeightUnitFlow, EdgelessGraphIsNulloptWithAndWithoutWorkspace) {
  const Digraph g(2);
  EXPECT_FALSE(McfWorkspace().min_weight_flow(g, 0, 1, 1, 1, 0).has_value());
  McfWorkspace ws;
  for (int round = 0; round < 2; ++round)
    EXPECT_FALSE(ws.min_weight_flow(g, 0, 1, 1, 1, 0).has_value());
  EXPECT_EQ(ws.rebuilds(), 1u);
  EXPECT_EQ(ws.reuse_hits(), 1u);
}

// Two graphs with the same vertex and edge counts but other endpoints never
// share a network: g's cheapest path costs 2, h's costs 6, and h's prices
// on g's arcs give 2. g with one more, isolated vertex does not share g's
// network either.
TEST(McfWorkspace, SameSizedTopologiesNeverShareANetwork) {
  Digraph g(4);
  g.add_edge(0, 1, 1, 0);
  g.add_edge(1, 3, 1, 0);
  g.add_edge(0, 2, 5, 0);
  g.add_edge(2, 3, 5, 0);
  Digraph h(4);
  h.add_edge(0, 1, 1, 0);
  h.add_edge(2, 3, 1, 0);
  h.add_edge(0, 2, 5, 0);
  h.add_edge(1, 3, 5, 0);
  Digraph wider = g;
  wider.resize(5);
  McfWorkspace ws;
  const auto weight = [&ws](const Digraph& graph) {
    return flow_weight(graph, *ws.min_weight_flow(graph, 0, 3, 1, 1, 0));
  };
  EXPECT_EQ(weight(g), 2);
  EXPECT_EQ(weight(h), 6);
  EXPECT_EQ(weight(g), 2);
  EXPECT_EQ(weight(g), 2);
  EXPECT_FALSE(ws.min_weight_flow(wider, 0, 4, 1, 1, 0).has_value());
  EXPECT_EQ(ws.rebuilds(), 4u);
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

// Checks that `edges` is a flow of q.k units q.s→q.t on g, each edge used
// once, in ascending order, with the given weight.
void expect_unit_flow(const Digraph& g, const UnitQuery& q,
                      const std::vector<graph::EdgeId>& edges,
                      std::int64_t weight) {
  std::vector<std::int64_t> net(g.num_vertices(), 0);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const graph::EdgeId e = edges[i];
    ASSERT_TRUE(e >= 0 && e < g.num_edges());
    if (i > 0) {
      ASSERT_LT(edges[i - 1], e);  // each edge used once
    }
    ++net[g.edge(e).from];
    --net[g.edge(e).to];
  }
  EXPECT_EQ(flow_weight(g, edges, q.w_cost, q.w_delay), weight)
      << g.summary();
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v)
    EXPECT_EQ(net[v], v == q.s ? q.k : (v == q.t ? -q.k : 0));
}

// Reference weight of q's flow on g, or nullopt with fewer than k paths.
std::optional<std::int64_t> reference_weight(const Digraph& g,
                                             const UnitQuery& q) {
  std::vector<RefArc> arcs;
  for (const auto& e : g.edges())
    arcs.push_back(
        RefArc{e.from, e.to, 1, q.w_cost * e.cost + q.w_delay * e.delay});
  return reference_min_cost(g.num_vertices(), arcs, q.s, q.t, q.k);
}

SinkDistances sink_distances(const Digraph& g, graph::VertexId t) {
  return {paths::dijkstra_to(g, t, paths::EdgeWeight::cost()),
          paths::dijkstra_to(g, t, paths::EdgeWeight::delay())};
}

TEST(MinWeightUnitFlow, PropertyTieHeavySweepMatchesBellmanFordReference) {
  const UnitSweep sweep = make_unit_sweep();
  int feasible = 0;
  for (const UnitQuery& q : sweep.queries) {
    const Digraph& g = sweep.graphs[q.topology];
    const auto want = reference_weight(g, q);
    const auto got = McfWorkspace().min_weight_flow(g, q.s, q.t, q.k,
                                                    q.w_cost, q.w_delay);
    ASSERT_EQ(got.has_value(), want.has_value()) << g.summary();
    if (!got) continue;
    ++feasible;
    expect_unit_flow(g, q, *got, *want);
  }
  EXPECT_GT(feasible, 800);
}

TEST(MinWeightUnitFlow, PropertySharedWorkspaceInShuffledOrderIsIdentical) {
  const UnitSweep sweep = make_unit_sweep();
  std::vector<std::optional<std::vector<graph::EdgeId>>> fresh;
  for (const UnitQuery& q : sweep.queries)
    fresh.push_back(McfWorkspace().min_weight_flow(
        sweep.graphs[q.topology], q.s, q.t, q.k, q.w_cost, q.w_delay));
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
      EXPECT_EQ(ws.min_weight_flow(sweep.graphs[q.topology], q.s, q.t, q.k,
                                   q.w_cost, q.w_delay),
                fresh[i])
          << "query " << i;
    }
  }
  EXPECT_GT(ws.rebuilds(), 300u);
  EXPECT_GT(ws.reuse_hits(), 1000u);
}

// A call that throws leaves a usable workspace: a weight that throws on a
// reused network (the previous call's flow still in place) or right after
// a rebuild, and the next calls answer as a fresh network does.
TEST(McfWorkspace, CallThatThrowsLeavesAUsableWorkspace) {
  const Digraph g = two_routes();
  Digraph other(4);
  other.add_edge(0, 3, 1, 0);
  McfWorkspace ws;
  ASSERT_EQ(flow_weight(g, *ws.min_weight_flow(g, 0, 2, 2, 1, 0)), 14);
  EXPECT_THROW((void)ws.min_weight_flow(g, 0, 2, 1, -1, 0), util::CheckError);
  EXPECT_EQ(flow_weight(g, *ws.min_weight_flow(g, 0, 2, 1, 1, 0)), 4);
  EXPECT_THROW((void)ws.min_weight_flow(other, 0, 3, 1, -1, 0),
               util::CheckError);
  EXPECT_EQ(flow_weight(g, *ws.min_weight_flow(g, 0, 2, 2, 1, 0)), 14);
  EXPECT_EQ(flow_weight(other, *ws.min_weight_flow(other, 0, 3, 1, 1, 0)), 1);
  EXPECT_EQ(ws.rebuilds(), 4u);
}

// The search stays exact up to W = Σ arc weights = INT64_MAX / 2 and
// refuses anything larger instead of wrapping.
TEST(MinCostFlow, TotalWeightBoundIsInclusiveAndNamedWhenExceeded) {
  constexpr std::int64_t kHalf = std::numeric_limits<std::int64_t>::max() / 2;
  Digraph at_bound(3);
  at_bound.add_edge(0, 1, kHalf - 1, 0);
  at_bound.add_edge(1, 2, 1, 0);
  const auto f = McfWorkspace().min_weight_flow(at_bound, 0, 2, 1, 1, 0);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(flow_weight(at_bound, *f), kHalf);

  Digraph over(3);
  over.add_edge(0, 1, kHalf, 0);
  over.add_edge(1, 2, 1, 0);
  try {
    (void)McfWorkspace().min_weight_flow(over, 0, 2, 1, 1, 0);
    FAIL() << "expected a CheckError";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("overflow"), std::string::npos)
        << e.what();
  }
}

// --- Goal-directed searches: sink distances given.

// The tie-heavy sweep again, each graph extended by dead ends: three new
// vertices that no arc leaves toward the rest, and arcs into them from
// random vertices. With sink distances every answer keeps the reference
// weight and is a valid k-flow, on a fresh and on a reused network.
TEST(MinWeightUnitFlow, PropertyGoalDirectedSweepWithDeadEndsMatchesReference) {
  const UnitSweep sweep = make_unit_sweep();
  util::Rng rng(1609);
  McfWorkspace ws;
  int feasible = 0;
  for (const UnitQuery& q : sweep.queries) {
    Digraph g = sweep.graphs[q.topology];
    const int n = g.num_vertices();
    for (int i = 0; i < 3; ++i) g.add_vertex();
    for (int i = 0; i < 8; ++i) {
      const auto from = static_cast<graph::VertexId>(rng.uniform_int(0, n + 2));
      const auto into = static_cast<graph::VertexId>(rng.uniform_int(n, n + 2));
      g.add_edge(from, into, rng.uniform_int(0, 2), rng.uniform_int(0, 2));
    }
    const auto want = reference_weight(g, q);
    const SinkDistances sink = sink_distances(g, q.t);
    // Fresh network, then the workspace twice: a rebuild and a reuse.
    McfWorkspace fresh;
    for (McfWorkspace* w : {&fresh, &ws, &ws}) {
      const auto got =
          w->min_weight_flow(g, q.s, q.t, q.k, q.w_cost, q.w_delay, &sink);
      ASSERT_EQ(got.has_value(), want.has_value()) << g.summary();
      if (got) expect_unit_flow(g, q, *got, *want);
    }
    if (want) ++feasible;
  }
  EXPECT_GT(feasible, 800);
  EXPECT_EQ(ws.reuse_hits(), sweep.queries.size());
}

// Arcs 0→1, 1→2 and 3→0 toward t = 3: no arc enters t, so no other vertex
// can reach it.
TEST(MinCostFlow, SourceThatCannotReachSinkIsNulloptWithDistances) {
  Digraph g(4);
  g.add_edge(0, 1, 1, 1);
  g.add_edge(1, 2, 1, 1);
  g.add_edge(3, 0, 1, 1);
  const SinkDistances sink = sink_distances(g, 3);
  EXPECT_EQ(sink.cost[0], paths::kUnreachable);
  McfWorkspace ws;
  EXPECT_FALSE(ws.min_weight_flow(g, 0, 3, 1, 1, 1, &sink).has_value());
  EXPECT_FALSE(ws.min_weight_flow(g, 0, 3, 1, 1, 1).has_value());
}

// Two routes 0→1→3 (X + 1) and 0→2→3 (2 + (X - 2)) and a dead end 0→4,
// so W = 2X + 1. Goal-directed searches (W <= INT64_MAX / 4) never settle
// the dead end; above that bound the distances are ignored and the dead
// end is settled, and up to W = INT64_MAX / 2 the answer stays exact.
TEST(MinCostFlow, GoalDirectionFallsBackAboveItsRangeAndStaysExact) {
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  for (const std::int64_t x : {kMax / 8, kMax / 5, kMax / 4 - 1}) {
    const std::int64_t w = 2 * x + 1;
    ASSERT_LE(w, kMax / 2);
    Digraph g(5);
    g.add_edge(0, 1, x, 0);
    g.add_edge(1, 3, 1, 0);
    g.add_edge(0, 2, 2, 0);
    g.add_edge(2, 3, x - 2, 0);
    g.add_edge(0, 4, 0, 0);
    const SinkDistances sink = sink_distances(g, 3);
    ASSERT_EQ(sink.cost,
              (std::vector<graph::Cost>{x, 1, x - 2, 0, paths::kUnreachable}));
    McfWorkspace plain;
    McfWorkspace directed;
    const auto weight = [&](McfWorkspace& ws, int k, const SinkDistances* h) {
      const auto f = ws.min_weight_flow(g, 0, 3, k, 1, 0, h);
      return f ? std::optional<std::int64_t>{flow_weight(g, *f)} : std::nullopt;
    };
    ASSERT_EQ(weight(plain, 1, nullptr), std::optional<std::int64_t>{x});
    ASSERT_EQ(weight(directed, 1, &sink), std::optional<std::int64_t>{x});
    if (w <= kMax / 4) {
      EXPECT_LT(directed.vertices_settled(), plain.vertices_settled());
    } else {
      EXPECT_EQ(directed.vertices_settled(), plain.vertices_settled());
    }
    EXPECT_EQ(weight(plain, 2, nullptr), std::optional<std::int64_t>{w});
    const auto both = directed.min_weight_flow(g, 0, 3, 2, 1, 0, &sink);
    ASSERT_TRUE(both.has_value());
    EXPECT_EQ(flow_weight(g, *both), w);
    EXPECT_EQ(std::count(both->begin(), both->end(), 4), 0);
  }
}

}  // namespace
}  // namespace krsp::flow
