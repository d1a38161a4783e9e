#include "core/bicameral.h"

#include <gtest/gtest.h>

#include <limits>

#include "baselines/brute_force.h"
#include "core/lp_cycle_finder.h"
#include "flow/disjoint.h"
#include "graph/cycles.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace krsp::core {
namespace {

using graph::Cost;
using graph::Delay;
using graph::EdgeId;
using util::Rational;

TEST(Classify, Type0Variants) {
  const Rational r(-1, 2);
  EXPECT_EQ(BicameralCycleFinder::classify(-1, -1, 10, r, true),
            CycleType::kType0);
  EXPECT_EQ(BicameralCycleFinder::classify(0, -1, 10, r, true),
            CycleType::kType0);
  EXPECT_EQ(BicameralCycleFinder::classify(-1, 0, 10, r, true),
            CycleType::kType0);
  // Zero-zero never qualifies (would stall the potential).
  EXPECT_FALSE(BicameralCycleFinder::classify(0, 0, 10, r, true).has_value());
}

TEST(Classify, Type1RatioAndCap) {
  const Rational r(-1, 2);  // need d/c <= -1/2
  EXPECT_EQ(BicameralCycleFinder::classify(2, -1, 10, r, true),
            CycleType::kType1);
  EXPECT_EQ(BicameralCycleFinder::classify(2, -2, 10, r, true),
            CycleType::kType1);
  // Ratio too shallow.
  EXPECT_FALSE(BicameralCycleFinder::classify(4, -1, 10, r, true).has_value());
  // Cap violation.
  EXPECT_FALSE(BicameralCycleFinder::classify(11, -6, 10, r, true).has_value());
  // Cap ignored in unsafe mode.
  EXPECT_EQ(BicameralCycleFinder::classify(11, -6, 10, r, false),
            CycleType::kType1);
}

TEST(Classify, Type2StrictRatio) {
  const Rational r(-1, 2);  // need d/c > -1/2 strictly
  EXPECT_EQ(BicameralCycleFinder::classify(-4, 1, 10, r, true),
            CycleType::kType2);  // ratio -1/4 > -1/2
  // Exactly -1/2 is rejected (strictness for termination).
  EXPECT_FALSE(BicameralCycleFinder::classify(-2, 1, 10, r, true).has_value());
  // Cap on |c|.
  EXPECT_FALSE(
      BicameralCycleFinder::classify(-11, 1, 10, r, true).has_value());
}

// A hand-built residual situation: flow on the slow path, a fast bypass
// available. The finder must return the rerouting cycle.
TEST(Finder, FindsRerouteCycleInDiamond) {
  graph::Digraph g(4);
  g.add_edge(0, 1, 0, 5);   // e0: slow-cheap
  g.add_edge(1, 3, 0, 5);   // e1
  g.add_edge(0, 2, 3, 1);   // e2: fast-pricey (unused)
  g.add_edge(2, 3, 3, 1);   // e3
  const ResidualGraph residual(g, {0, 1});
  BicameralQuery q;
  q.cap = 10;
  q.ratio = Rational(-1, 10);
  const BicameralCycleFinder finder;
  BicameralStats stats;
  const auto cycle = finder.find(residual, q, &stats);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->type, CycleType::kType1);
  EXPECT_EQ(cycle->cost, 6);    // 3 + 3 - 0 - 0
  EXPECT_EQ(cycle->delay, -8);  // 1 + 1 - 5 - 5
  EXPECT_GT(stats.anchors_scanned, 0);
}

TEST(Finder, CapExcludesExpensiveCycle) {
  graph::Digraph g(4);
  g.add_edge(0, 1, 0, 5);
  g.add_edge(1, 3, 0, 5);
  g.add_edge(0, 2, 3, 1);
  g.add_edge(2, 3, 3, 1);
  const ResidualGraph residual(g, {0, 1});
  BicameralQuery q;
  q.cap = 5;  // reroute costs 6 > 5
  q.ratio = Rational(-1, 10);
  EXPECT_FALSE(BicameralCycleFinder().find(residual, q).has_value());
}

TEST(Finder, Type0FoundWhenFreeImprovementExists) {
  graph::Digraph g(4);
  g.add_edge(0, 1, 5, 5);   // flow, expensive AND slow
  g.add_edge(1, 3, 5, 5);   // flow
  g.add_edge(0, 2, 1, 1);   // strictly better bypass
  g.add_edge(2, 3, 1, 1);
  const ResidualGraph residual(g, {0, 1});
  BicameralQuery q;
  q.cap = 100;
  q.ratio = Rational(-1, 100);
  const auto cycle = BicameralCycleFinder().find(residual, q);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->type, CycleType::kType0);
  EXPECT_LT(cycle->cost, 0);
  EXPECT_LT(cycle->delay, 0);
}

TEST(Finder, NoCycleInTightGraph) {
  // Single path, no alternatives: residual has no cycles at all.
  graph::Digraph g(3);
  g.add_edge(0, 1, 1, 1);
  g.add_edge(1, 2, 1, 1);
  const ResidualGraph residual(g, {0, 1});
  BicameralQuery q;
  q.cap = 10;
  q.ratio = Rational(-1, 1);
  EXPECT_FALSE(BicameralCycleFinder().find(residual, q).has_value());
}

TEST(Finder, Figure1GadgetRespectsAndIgnoresCap) {
  const auto fig = gen::figure1_gadget(4, 5);
  // Current solution: the cheap slow pair {s-a-b-c-t, s-t} = edges 0,1,2,3,4.
  const ResidualGraph residual(fig.graph, {0, 1, 2, 3, 4});
  BicameralQuery q;
  q.cap = fig.optimal_cost;  // Ĉ = C_OPT = 5
  q.ratio = Rational(-1, 5);  // ΔD = -1, ΔC = 5
  const auto safe = BicameralCycleFinder().find(residual, q);
  ASSERT_TRUE(safe.has_value());
  EXPECT_EQ(safe->cost, fig.optimal_cost);  // the good cycle via b->t
  EXPECT_EQ(safe->delay, -1);

  BicameralQuery unsafe_q;
  unsafe_q.enforce_cap = false;
  unsafe_q.ratio = Rational(0);
  const auto unsafe = BicameralCycleFinder().find(residual, unsafe_q);
  ASSERT_TRUE(unsafe.has_value());
  EXPECT_EQ(unsafe->cost, fig.bad_cost);  // best ratio: the ruinous cycle
}

// Cross-validation (property): the production finder and the LP-(6)
// reference finder agree on qualification, and every returned cycle indeed
// classifies under Definition 10.
TEST(Finder, PropertyAgreesWithLpReference) {
  util::Rng rng(233);
  int compared = 0;
  for (int trial = 0; trial < 60; ++trial) {
    RandomInstanceOptions opt;
    opt.k = 2;
    opt.delay_slack = 0.2;
    gen::WeightRange w;
    w.cost_max = 2;
    w.delay_max = 6;
    const auto inst = random_er_instance(rng, 7, 0.4, opt, w);
    if (!inst) continue;
    const auto cur = flow::min_weight_disjoint_paths(
        inst->graph, inst->s, inst->t, inst->k, 1, 0);
    if (!cur || cur->total_delay <= inst->delay_bound) continue;
    const auto best = baselines::brute_force_krsp(*inst);
    if (!best) continue;
    if (best->cost > 8) continue;  // keep the reference LP budgets small
    ++compared;

    std::vector<EdgeId> cur_edges;
    for (const auto& p : cur->paths)
      cur_edges.insert(cur_edges.end(), p.begin(), p.end());
    const ResidualGraph residual(inst->graph, cur_edges);

    BicameralQuery q;
    q.cap = best->cost;  // true C_OPT
    const Delay delta_d = inst->delay_bound - cur->total_delay;
    const Cost delta_c = best->cost - cur->total_cost;
    if (delta_c <= 0) continue;
    q.ratio = Rational(delta_d, delta_c);

    const auto fast = BicameralCycleFinder().find(residual, q);
    LpCycleFinder::Options lp_opt;
    lp_opt.max_budget = 8;  // keep the reference LPs small
    const auto reference = LpCycleFinder(lp_opt).find(residual, q, delta_d);
    // Theorem 16: with cap = C_OPT a bicameral cycle must exist here.
    ASSERT_TRUE(fast.has_value()) << inst->summary();
    EXPECT_TRUE(reference.has_value()) << inst->summary();
    for (const auto& found : {fast, reference}) {
      if (!found) continue;
      EXPECT_TRUE(graph::is_simple_cycle(residual.digraph(), found->edges));
      EXPECT_EQ(residual.cycle_cost(found->edges), found->cost);
      EXPECT_EQ(residual.cycle_delay(found->edges), found->delay);
      const auto type = BicameralCycleFinder::classify(
          found->cost, found->delay, q.cap, q.ratio, true);
      ASSERT_TRUE(type.has_value());
      EXPECT_EQ(*type, found->type);
    }
  }
  EXPECT_GT(compared, 5);
}

TEST(Finder, Type2FoundWhenOnlyCostReductionQualifies) {
  // Flow sits on the expensive-fast path; the only residual cycle swaps it
  // for the cheap-slow one: cost -9, delay +2 — a pure type-2 move.
  graph::Digraph g(4);
  g.add_edge(0, 1, 5, 1);   // e0 (flow)
  g.add_edge(1, 3, 5, 0);   // e1 (flow)
  g.add_edge(0, 2, 1, 2);   // e2
  g.add_edge(2, 3, 0, 1);   // e3
  const ResidualGraph residual(g, {0, 1});
  BicameralQuery q;
  q.cap = 20;
  q.ratio = Rational(-1, 1);  // -2/9 > -1: qualifies strictly
  const auto found = BicameralCycleFinder().find(residual, q);
  ASSERT_TRUE(found.has_value());
  EXPECT_EQ(found->type, CycleType::kType2);
  EXPECT_EQ(found->cost, -9);
  EXPECT_EQ(found->delay, 2);
}

TEST(Finder, Type2RejectedWhenRatioTooShallow) {
  graph::Digraph g(4);
  g.add_edge(0, 1, 5, 1);
  g.add_edge(1, 3, 5, 0);
  g.add_edge(0, 2, 1, 2);
  g.add_edge(2, 3, 0, 1);
  const ResidualGraph residual(g, {0, 1});
  BicameralQuery q;
  q.cap = 20;
  q.ratio = Rational(-1, 10);  // -2/9 < -1/10: does not qualify
  EXPECT_FALSE(BicameralCycleFinder().find(residual, q).has_value());
}

TEST(LpReference, FindsType2ThroughHMinus) {
  // The type-2 diamond again, but through the LP-(6) reference path: the
  // negative-cost cycle lives in H^-(B), exercising the anchor-to-layer-B
  // closing arcs.
  graph::Digraph g(4);
  g.add_edge(0, 1, 5, 1);
  g.add_edge(1, 3, 5, 0);
  g.add_edge(0, 2, 1, 2);
  g.add_edge(2, 3, 0, 1);
  const ResidualGraph residual(g, {0, 1});
  BicameralQuery q;
  q.cap = 12;
  q.ratio = Rational(-1, 1);
  // ΔD must admit the delay increase: LP (6) needs a feasible circulation;
  // pass a slack that the +2-delay cycle alone cannot satisfy via delay
  // reduction — the reference still reports the qualifying type-2 found
  // among peeled cycles when any circulation exists. Use a permissive
  // delta_d by adding a separate delay-reducing cycle: simpler, solve on
  // the mirrored instance where the type-2 cycle is the unique option and
  // delta_d = -1 has no solution — expect the reference to return nullopt
  // for H+ but find the cycle via its H- scan only when the LP is
  // feasible. Since x's delay sum must be <= delta_d < 0 and the only
  // cycle has delay +2, LP (6) is infeasible everywhere: the reference
  // finds nothing. This documents the reference's fidelity to the paper
  // (LP (6) requires delay reduction), in contrast with the production
  // finder, which also serves type-2 cycles for cost repair.
  const auto reference = LpCycleFinder().find(residual, q, -1);
  EXPECT_FALSE(reference.has_value());
  const auto production = BicameralCycleFinder().find(residual, q);
  ASSERT_TRUE(production.has_value());
  EXPECT_EQ(production->type, CycleType::kType2);
}

TEST(Finder, NearMaxCapSaturatesBudgetSchedule) {
  // cap = INT64_MAX: the budget-doubling schedule must saturate instead of
  // wrapping past INT64_MAX/2, and the rounds·max|c| clamp must keep the DP
  // at graph scale (every reachable cost prefix of a <= n-edge walk fits in
  // [−n·max|c|, n·max|c|], so larger budgets are provably useless).
  graph::Digraph g(4);
  g.add_edge(0, 1, 0, 5);
  g.add_edge(1, 3, 0, 5);
  g.add_edge(0, 2, 3, 1);
  g.add_edge(2, 3, 3, 1);
  const ResidualGraph residual(g, {0, 1});
  BicameralQuery q;
  q.cap = std::numeric_limits<graph::Cost>::max();
  q.ratio = Rational(-1, 10);
  BicameralStats stats;
  const auto cycle = BicameralCycleFinder().find(residual, q, &stats);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->type, CycleType::kType1);
  EXPECT_EQ(cycle->cost, 6);
  EXPECT_EQ(cycle->delay, -8);
  // Clamped ceiling: budgets stop at n·max|c| = 12, i.e. 8 then 12.
  EXPECT_LE(stats.budgets_tried, 2);
}

TEST(Finder, SeedRotationNeedsBudgetHeadroom) {
  // Regression for the capped budget ceiling. The single cycle
  // 0→1→2→3→0 with costs (+5, +1, −6, +7) fits budget 7 when anchored at
  // vertex 0 (prefixes 5, 6, 0, 7) but the seed rotation — at vertex 3,
  // the head of the negative arc — peaks at 13 (prefixes 7, 12, 13, 7).
  // With cap = 12 a ceiling of cap alone would make the seed scan miss a
  // qualifying cycle the full scan can see; the 2·cap headroom (seed
  // rotation budget <= B_min + cycle cost <= 2·cap) restores completeness.
  graph::Digraph g(4);
  g.add_edge(0, 1, 5, 1);
  g.add_edge(1, 2, 1, 1);
  g.add_edge(3, 2, 6, 5);  // flow: residual arc 2→3 has cost −6, delay −5
  g.add_edge(3, 0, 7, 1);
  const ResidualGraph residual(g, {2});
  BicameralQuery q;
  q.cap = 12;
  q.ratio = Rational(-1, 4);  // cycle ratio −2/7 <= −1/4 qualifies
  const auto cycle = BicameralCycleFinder().find(residual, q);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->type, CycleType::kType1);
  EXPECT_EQ(cycle->cost, 7);
  EXPECT_EQ(cycle->delay, -2);
}

TEST(Finder, OnlyQualifyingCycleLongerThanFirstRoundCap) {
  // Regression for the walk-length deepening: its first step caps walks at
  // 16 arcs, and the only qualifying cycle here has 20. Ring 0→1→…→19→0
  // alternates forward arcs (cost 3, delay 1) with reversed flow arcs
  // (cost −1, delay −3): cost 20, delay −20, type-1 for cap 25, r = −1/2.
  // Chords 2i→2i−2 (cost 0, delay 5) close short cycles — every 3-cycle
  // (cost 2, delay 3) and the 10-chord ring (cost 0, delay 50) — none of
  // which qualifies, so no walk of <= 16 arcs holds a qualifying cycle and
  // only the full-bound step can find the ring.
  constexpr int kRing = 20;
  graph::Digraph g(kRing);
  std::vector<EdgeId> flow;
  for (int i = 0; i < kRing; ++i) {
    const int next = (i + 1) % kRing;
    if (i % 2 == 0) {
      g.add_edge(i, next, 3, 1);
    } else {
      flow.push_back(g.add_edge(next, i, 1, 3));
    }
  }
  for (int i = 0; i < kRing; i += 2)
    g.add_edge(i, (i + kRing - 2) % kRing, 0, 5);
  const ResidualGraph residual(g, flow);
  BicameralQuery q;
  q.cap = 25;
  q.ratio = Rational(-1, 2);
  BicameralStats stats;
  BicameralWorkspace ws;
  const auto cycle = BicameralCycleFinder().find(residual, q, &stats, &ws);
  ASSERT_TRUE(cycle.has_value());
  EXPECT_EQ(cycle->type, CycleType::kType1);
  EXPECT_EQ(cycle->edges.size(), static_cast<std::size_t>(kRing));
  EXPECT_EQ(cycle->cost, 20);
  EXPECT_EQ(cycle->delay, -20);
  EXPECT_TRUE(graph::is_simple_cycle(residual.digraph(), cycle->edges));
  // The capped step ran first and came up empty at budgets 8, 16, 32, 48
  // (its ceiling is 16·max|c|); the full step then found the ring at
  // budget 32 (its seed rotation peaks at 21).
  EXPECT_EQ(stats.budgets_tried, 4 + 3);
  EXPECT_GT(stats.dp_rounds, 0);
}

TEST(Finder, PruningStatsExposeSkippedWork) {
  // Two disjoint 2-cycles; flow on one of them only. The flowless 2-cycle's
  // SCC has no negative arc, so the pruned scan skips it entirely.
  graph::Digraph g(4);
  g.add_edge(0, 1, 1, 5);  // flow
  g.add_edge(1, 0, 1, 5);  // flow
  g.add_edge(2, 3, 1, 1);
  g.add_edge(3, 2, 1, 1);
  const ResidualGraph residual(g, {0, 1});
  BicameralQuery q;
  q.cap = 10;
  q.ratio = Rational(-1, 2);
  BicameralStats stats;
  (void)BicameralCycleFinder().find(residual, q, &stats);
  EXPECT_GT(stats.anchors_pruned, 0);
  EXPECT_GT(stats.peak_dp_bytes, 0);
  // Anchors 0/1 (endpoints of the negated flow arcs) form the only SCC
  // with internal negative arcs; vertices 2/3 are never seeds at all.
  EXPECT_LE(stats.anchors_scanned, 2 * stats.budgets_tried * 2);
}

TEST(Finder, StatsPopulated) {
  const auto fig = gen::figure1_gadget(4, 5);
  const ResidualGraph residual(fig.graph, {0, 1, 2, 3, 4});
  BicameralQuery q;
  q.cap = 5;
  q.ratio = Rational(-1, 5);
  BicameralStats stats;
  (void)BicameralCycleFinder().find(residual, q, &stats);
  EXPECT_GT(stats.anchors_scanned, 0);
  EXPECT_GT(stats.budgets_tried, 0);
  EXPECT_GT(stats.cycles_classified, 0);
}

}  // namespace
}  // namespace krsp::core
