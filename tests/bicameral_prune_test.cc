// Property tests for the bicameral finder's pruned, deepening kernel.
//
// Every randomized residual below is checked three ways:
//   * the serial workspace scan and the (possibly OpenMP) parallel scan
//     return exactly the same result — same presence, edges, cost, delay
//     and type;
//   * a returned cycle is a genuine simple residual cycle that classifies
//     under Definition 10;
//   * completeness against a brute-force enumeration of every simple
//     residual cycle: whenever some qualifying cycle is covered by the
//     finder's contract (DESIGN.md §3 — a rotation starting at a seed
//     anchor keeps every cost prefix inside the budget ceiling, 2·cap when
//     capped), the finder must return a cycle.
// The large-SCC suite uses SCCs of 17–30 vertices, so the walk-length
// deepening runs its capped first step before the full one.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>

#include "core/bicameral.h"
#include "graph/cycles.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace krsp::core {
namespace {

using graph::Cost;
using graph::EdgeId;
using graph::VertexId;
using util::Rational;

// Random flow set: any duplicate-free edge subset is a valid ResidualGraph
// flow set (rebuild only reverses and negates the chosen edges), and random
// subsets produce far more varied negative-arc structure than actual
// disjoint-path solutions would.
std::vector<EdgeId> random_flow_subset(util::Rng& rng,
                                       const graph::Digraph& g,
                                       double keep_prob) {
  std::vector<EdgeId> flow;
  for (EdgeId e = 0; e < g.num_edges(); ++e)
    if (rng.bernoulli(keep_prob)) flow.push_back(e);
  return flow;
}

BicameralQuery random_query(util::Rng& rng) {
  BicameralQuery q;
  q.cap = static_cast<Cost>(rng.uniform_int(1, 40));
  q.ratio = Rational(-static_cast<std::int64_t>(rng.uniform_int(0, 4)),
                     static_cast<std::int64_t>(rng.uniform_int(1, 6)));
  q.enforce_cap = rng.uniform_int(0, 4) != 0;  // 20% uncapped ablation mode
  return q;
}

// Every simple cycle of g as an edge sequence starting at its smallest
// vertex (parallel arcs give distinct cycles), or nullopt past `limit`.
std::optional<std::vector<std::vector<EdgeId>>> simple_cycles(
    const graph::Digraph& g, std::size_t limit) {
  std::vector<std::vector<EdgeId>> cycles;
  std::vector<char> on_path(g.num_vertices(), 0);
  std::vector<EdgeId> path;
  bool overflow = false;
  const auto dfs = [&](auto&& self, VertexId root, VertexId u) -> void {
    for (const EdgeId e : g.out_edges(u)) {
      if (overflow) return;
      const VertexId v = g.edge(e).to;
      if (v == root) {
        path.push_back(e);
        cycles.push_back(path);
        path.pop_back();
        overflow = cycles.size() > limit;
      } else if (v > root && !on_path[v]) {
        on_path[v] = 1;
        path.push_back(e);
        self(self, root, v);
        path.pop_back();
        on_path[v] = 0;
      }
    }
  };
  for (VertexId r = 0; r < g.num_vertices() && !overflow; ++r) {
    on_path[r] = 1;
    dfs(dfs, r, r);
    on_path[r] = 0;
  }
  if (overflow) return std::nullopt;
  return cycles;
}

// DESIGN.md §3's completeness contract: some rotation starting at a seed
// anchor (the head of a negative arc for H⁺, the tail for H⁻) keeps every
// cost prefix within [0, ceiling] (H⁺) or [−ceiling, 0] (H⁻).
bool covered_by_contract(const ResidualGraph& residual,
                         const std::vector<EdgeId>& cycle, Cost ceiling) {
  const graph::Digraph& rg = residual.digraph();
  std::vector<char> head(rg.num_vertices(), 0), tail(rg.num_vertices(), 0);
  for (const EdgeId e : residual.negative_arcs()) {
    head[rg.edge(e).to] = 1;
    tail[rg.edge(e).from] = 1;
  }
  const std::size_t len = cycle.size();
  for (std::size_t s = 0; s < len; ++s) {
    Cost prefix = 0, lo = 0, hi = 0;
    for (std::size_t k = 0; k < len; ++k) {
      prefix += rg.edge(cycle[(s + k) % len]).cost;
      lo = std::min(lo, prefix);
      hi = std::max(hi, prefix);
    }
    const VertexId v = rg.edge(cycle[s]).from;
    if (head[v] && lo >= 0 && hi <= ceiling) return true;
    if (tail[v] && hi <= 0 && -lo <= ceiling) return true;
  }
  return false;
}

// Runs the finder through both scan paths, checks they agree and that a
// returned cycle is genuine, and — when `brute_force` — checks existence
// against the enumerated simple cycles.
void check_finder(const ResidualGraph& residual, const BicameralQuery& q,
                  const char* context, bool brute_force) {
  const BicameralCycleFinder finder;
  const auto parallel = finder.find(residual, q);
  BicameralWorkspace ws;
  const auto serial = finder.find(residual, q, nullptr, &ws);

  ASSERT_EQ(parallel.has_value(), serial.has_value()) << context;
  if (parallel.has_value()) {
    EXPECT_EQ(parallel->edges, serial->edges) << context;
    EXPECT_EQ(parallel->cost, serial->cost) << context;
    EXPECT_EQ(parallel->delay, serial->delay) << context;
    EXPECT_EQ(parallel->type, serial->type) << context;

    EXPECT_TRUE(graph::is_simple_cycle(residual.digraph(), parallel->edges))
        << context;
    EXPECT_EQ(residual.cycle_cost(parallel->edges), parallel->cost)
        << context;
    EXPECT_EQ(residual.cycle_delay(parallel->edges), parallel->delay)
        << context;
    const auto type = BicameralCycleFinder::classify(
        parallel->cost, parallel->delay, q.cap, q.ratio, q.enforce_cap);
    ASSERT_TRUE(type.has_value()) << context;
    EXPECT_EQ(*type, parallel->type) << context;
  }
  if (!brute_force) return;

  const auto cycles = simple_cycles(residual.digraph(), 200000);
  ASSERT_TRUE(cycles.has_value()) << context << ": too many simple cycles";
  const Cost ceiling = q.enforce_cap ? 2 * q.cap
                                     : std::numeric_limits<Cost>::max();
  bool any_qualifying = false;
  bool covered = false;
  for (const auto& cycle : *cycles) {
    const auto type = BicameralCycleFinder::classify(
        residual.cycle_cost(cycle), residual.cycle_delay(cycle), q.cap,
        q.ratio, q.enforce_cap);
    if (!type) continue;
    any_qualifying = true;
    if (!covered) covered = covered_by_contract(residual, cycle, ceiling);
  }
  if (covered) {
    EXPECT_TRUE(parallel.has_value()) << context;
  }
  if (parallel.has_value()) {
    EXPECT_TRUE(any_qualifying) << context;
  }
}

TEST(BicameralPrune, NoNegativeArcResidualsReturnNothing) {
  util::Rng rng(0xabc1);
  for (int trial = 0; trial < 40; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(4, 12));
    gen::WeightRange w;
    w.cost_min = trial % 3 == 0 ? 0 : 1;  // exercise zero-cost layers too
    const auto g = gen::erdos_renyi(rng, n, 0.35, w);
    // Empty flow set: every residual arc keeps its non-negative weights.
    const ResidualGraph residual(g, {});
    ASSERT_TRUE(residual.negative_arcs().empty());
    const BicameralQuery q = random_query(rng);
    BicameralStats stats;
    EXPECT_FALSE(
        BicameralCycleFinder().find(residual, q, &stats).has_value());
    // The seed fast path answers without scanning a single anchor.
    EXPECT_EQ(stats.anchors_scanned, 0);
    EXPECT_EQ(stats.dp_rounds, 0);
    check_finder(residual, q, "no-negative-arc", false);
  }
}

TEST(BicameralPrune, DenseSingleSccInstancesMatch) {
  util::Rng rng(0xabc2);
  for (int trial = 0; trial < 90; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(6, 12));
    gen::WeightRange w;
    w.cost_max = static_cast<Cost>(rng.uniform_int(2, 10));
    w.delay_max = static_cast<Cost>(rng.uniform_int(2, 10));
    if (trial % 4 == 0) w.cost_min = 0;
    const auto g = gen::erdos_renyi(rng, n, 0.5, w);
    const ResidualGraph residual(g, random_flow_subset(rng, g, 0.4));
    // Dense graphs hold too many simple cycles to enumerate.
    check_finder(residual, random_query(rng), "dense", false);
  }
}

TEST(BicameralPrune, SparseManySccInstancesMatch) {
  util::Rng rng(0xabc3);
  for (int trial = 0; trial < 90; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(8, 16));
    gen::WeightRange w;
    w.cost_max = static_cast<Cost>(rng.uniform_int(2, 8));
    w.delay_max = static_cast<Cost>(rng.uniform_int(2, 8));
    const auto g = gen::erdos_renyi(rng, n, 0.12, w);
    const ResidualGraph residual(g, random_flow_subset(rng, g, 0.3));
    check_finder(residual, random_query(rng), "sparse", true);
  }
}

TEST(BicameralPrune, LargeSccExistenceMatchesBruteForce) {
  // Residuals whose one SCC has 17–30 vertices: a random Hamiltonian ring
  // (each ring arc stored forward, or reversed as a flow edge so the
  // residual still carries it forward with negated weights) plus random
  // chords. Every anchor's full bound exceeds the first walk-length cap,
  // so each find runs the capped step first; on the long-cycle trials a
  // finder that stopped there would miss qualifying cycles.
  util::Rng rng(0xabc5);
  int found = 0;
  int trials = 0;
  for (; trials < 120; ++trials) {
    const int n = static_cast<int>(rng.uniform_int(17, 30));
    std::vector<VertexId> order(n);
    std::iota(order.begin(), order.end(), 0);
    for (int i = n - 1; i > 0; --i)
      std::swap(order[i], order[rng.uniform_int(0, i)]);
    graph::Digraph g(n);
    std::vector<EdgeId> flow;
    const auto add_arc = [&](VertexId u, VertexId v) {
      const auto c = static_cast<Cost>(rng.uniform_int(0, 6));
      const auto d = static_cast<Cost>(rng.uniform_int(0, 6));
      if (rng.bernoulli(0.4)) {
        flow.push_back(g.add_edge(v, u, c, d));  // residual: u→v, negated
      } else {
        g.add_edge(u, v, c, d);
      }
    };
    for (int i = 0; i < n; ++i) add_arc(order[i], order[(i + 1) % n]);
    const int chords = static_cast<int>(rng.uniform_int(n / 4, n / 2));
    for (int i = 0; i < chords; ++i) {
      const int from = static_cast<int>(rng.uniform_int(0, n - 1));
      // Odd trials only add short forward skips, which keep every cycle
      // long; even trials add arbitrary chords and short cycles with them.
      const int to = trials % 2 == 1
                         ? (from + static_cast<int>(rng.uniform_int(2, 3))) % n
                         : static_cast<int>(rng.uniform_int(0, n - 1));
      if (from != to) add_arc(order[from], order[to]);
    }
    const ResidualGraph residual(g, flow);
    const BicameralQuery q = random_query(rng);
    check_finder(residual, q, "large-scc", true);
    if (BicameralCycleFinder().find(residual, q).has_value()) ++found;
  }
  // Both outcomes must be exercised for the existence check to mean much.
  EXPECT_GT(found, trials / 10);
  EXPECT_LT(found, trials);
}

TEST(BicameralPrune, WorkspaceReuseAcrossShapesIsStable) {
  // One workspace across residuals of very different sizes and budgets:
  // the grown tables must never leak stale state into later finds.
  util::Rng rng(0xabc4);
  BicameralWorkspace ws;
  const BicameralCycleFinder finder;
  for (int trial = 0; trial < 30; ++trial) {
    const int n = static_cast<int>(rng.uniform_int(4, 14));
    const double p = trial % 2 == 0 ? 0.5 : 0.15;
    const auto g = gen::erdos_renyi(rng, n, p, {});
    const ResidualGraph residual(g, random_flow_subset(rng, g, 0.4));
    const BicameralQuery q = random_query(rng);
    const auto fresh = finder.find(residual, q);
    const auto reused = finder.find(residual, q, nullptr, &ws);
    ASSERT_EQ(fresh.has_value(), reused.has_value());
    if (fresh.has_value()) {
      EXPECT_EQ(fresh->edges, reused->edges);
      EXPECT_EQ(fresh->cost, reused->cost);
      EXPECT_EQ(fresh->delay, reused->delay);
      EXPECT_EQ(fresh->type, reused->type);
    }
  }
}

}  // namespace
}  // namespace krsp::core
