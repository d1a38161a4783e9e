#include "core/residual.h"

#include <gtest/gtest.h>

#include "baselines/brute_force.h"
#include "core/instance.h"
#include "flow/decompose.h"
#include "flow/disjoint.h"
#include "graph/cycles.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace krsp::core {
namespace {

using graph::EdgeId;

Instance diamond_instance() {
  Instance inst;
  inst.graph.resize(4);
  inst.graph.add_edge(0, 1, 1, 1);   // e0
  inst.graph.add_edge(1, 3, 1, 1);   // e1
  inst.graph.add_edge(0, 2, 2, 2);   // e2
  inst.graph.add_edge(2, 3, 2, 2);   // e3
  inst.graph.add_edge(1, 2, 5, 5);   // e4 (cross edge, unused by flow)
  inst.s = 0;
  inst.t = 3;
  inst.k = 2;
  inst.delay_bound = 6;
  return inst;
}

TEST(ResidualGraph, Definition6Structure) {
  const auto inst = diamond_instance();
  const ResidualGraph residual(inst.graph, {0, 1});  // flow on 0-1-3
  const auto& rg = residual.digraph();
  ASSERT_EQ(rg.num_edges(), inst.graph.num_edges());
  // Flow edges reversed with negated weights.
  EXPECT_TRUE(residual.is_reversed(0));
  EXPECT_EQ(rg.edge(0).from, 1);
  EXPECT_EQ(rg.edge(0).to, 0);
  EXPECT_EQ(rg.edge(0).cost, -1);
  EXPECT_EQ(rg.edge(0).delay, -1);
  // Non-flow edges kept forward with original weights.
  EXPECT_FALSE(residual.is_reversed(2));
  EXPECT_EQ(rg.edge(2).from, 0);
  EXPECT_EQ(rg.edge(2).cost, 2);
}

TEST(ResidualGraph, DuplicateFlowEdgesRejected) {
  const auto inst = diamond_instance();
  EXPECT_THROW(ResidualGraph(inst.graph, {0, 0}), util::CheckError);
}

TEST(ResidualGraph, CycleMeasuresAreSignAdjusted) {
  const auto inst = diamond_instance();
  const ResidualGraph residual(inst.graph, {0, 1});
  // Residual cycle: forward e4 (1->2), forward e3 (2->3), reversed e1
  // (3->1): cost 5 + 2 - 1 = 6, delay the same.
  const std::vector<EdgeId> cycle{4, 3, 1};
  EXPECT_EQ(residual.cycle_cost(cycle), 6);
  EXPECT_EQ(residual.cycle_delay(cycle), 6);
}

TEST(ResidualGraph, ApplyCycleRewiresFlow) {
  const auto inst = diamond_instance();
  const ResidualGraph residual(inst.graph, {0, 1});
  const std::vector<EdgeId> cycle{4, 3, 1};  // reroute 1-3 into 1-2-3
  const auto next = residual.apply_cycle(cycle);
  const std::vector<EdgeId> expected{0, 3, 4};
  EXPECT_EQ(next, expected);
}

TEST(ResidualGraph, ApplyCycleChecksMembership) {
  const auto inst = diamond_instance();
  const ResidualGraph residual(inst.graph, {0, 1});
  // Edge 2 is forward (not in flow); applying it twice via duplicate ids
  // would double-insert.
  EXPECT_THROW((void)residual.apply_cycle(std::vector<EdgeId>{2, 2}),
               util::CheckError);
}

// Proposition 8: current ⊕ optimal decomposes into edge-disjoint simple
// cycles in the residual graph.
TEST(DifferenceCycles, Proposition8OnRandomInstances) {
  util::Rng rng(191);
  int checked = 0;
  for (int trial = 0; trial < 20; ++trial) {
    RandomInstanceOptions opt;
    opt.k = 2;
    opt.delay_slack = 0.4;
    const auto inst = random_er_instance(rng, 9, 0.35, opt);
    if (!inst) continue;
    // current = min-cost flow; target = exact optimum.
    const auto cur = flow::min_weight_disjoint_paths(
        inst->graph, inst->s, inst->t, inst->k, 1, 0);
    const auto opt_sol = baselines::brute_force_krsp(*inst);
    if (!cur || !opt_sol) continue;
    ++checked;
    std::vector<EdgeId> cur_edges;
    for (const auto& p : cur->paths)
      cur_edges.insert(cur_edges.end(), p.begin(), p.end());
    const ResidualGraph residual(inst->graph, cur_edges);
    const auto cycles = difference_cycles(residual, opt_sol->paths.all_edges());
    graph::Cost cost_sum = 0;
    graph::Delay delay_sum = 0;
    for (const auto& c : cycles) {
      EXPECT_TRUE(graph::is_simple_cycle(residual.digraph(), c));
      cost_sum += residual.cycle_cost(c);
      delay_sum += residual.cycle_delay(c);
    }
    // The cycle system carries exactly the measure difference.
    EXPECT_EQ(cost_sum, opt_sol->cost - cur->total_cost);
    EXPECT_EQ(delay_sum, opt_sol->delay - cur->total_delay);
  }
  EXPECT_GT(checked, 5);
}

// Proposition 7 (property): applying any subset of the difference cycles to
// the current flow still yields k disjoint s-t paths.
TEST(ApplyCycle, Proposition7PreservesKDisjointPaths) {
  util::Rng rng(193);
  int checked = 0;
  for (int trial = 0; trial < 20; ++trial) {
    RandomInstanceOptions opt;
    opt.k = 2;
    opt.delay_slack = 0.3;
    const auto inst = random_er_instance(rng, 9, 0.35, opt);
    if (!inst) continue;
    const auto cur = flow::min_weight_disjoint_paths(
        inst->graph, inst->s, inst->t, inst->k, 1, 0);
    const auto best = baselines::brute_force_krsp(*inst);
    if (!cur || !best) continue;
    std::vector<EdgeId> cur_edges;
    for (const auto& p : cur->paths)
      cur_edges.insert(cur_edges.end(), p.begin(), p.end());
    const ResidualGraph residual(inst->graph, cur_edges);
    const auto cycles = difference_cycles(residual, best->paths.all_edges());
    // Apply cycles one at a time, re-validating after each.
    auto flow_edges = cur_edges;
    for (std::size_t step_i = 0; step_i < cycles.size(); ++step_i) {
      const ResidualGraph step(inst->graph, flow_edges);
      // Cycle edge ids are residual ids == original ids; rebuild against
      // the *current* residual: each original edge flips orientation state,
      // so the same id set remains a valid residual cycle only for the
      // first application — instead re-derive the remaining difference.
      const auto remaining = difference_cycles(step, best->paths.all_edges());
      if (remaining.empty()) break;
      flow_edges = step.apply_cycle(remaining.front());
      const auto d = flow::decompose_unit_flow(inst->graph, flow_edges,
                                               inst->s, inst->t, inst->k);
      EXPECT_EQ(static_cast<int>(d.paths.size()), inst->k);
      ++checked;
    }
  }
  EXPECT_GT(checked, 5);
}

// Lemma 9: if the current delay exceeds D (and the instance is feasible),
// the residual graph contains a negative-delay cycle.
TEST(DifferenceCycles, Lemma9NegativeDelayCycleExists) {
  util::Rng rng(197);
  int overshoots = 0;
  for (int trial = 0; trial < 30; ++trial) {
    RandomInstanceOptions opt;
    opt.k = 2;
    opt.delay_slack = 0.2;
    const auto inst = random_er_instance(rng, 9, 0.35, opt);
    if (!inst) continue;
    const auto cur = flow::min_weight_disjoint_paths(
        inst->graph, inst->s, inst->t, inst->k, 1, 0);
    const auto best = baselines::brute_force_krsp(*inst);
    if (!cur || !best) continue;
    if (cur->total_delay <= inst->delay_bound) continue;  // no overshoot
    ++overshoots;
    std::vector<EdgeId> cur_edges;
    for (const auto& p : cur->paths)
      cur_edges.insert(cur_edges.end(), p.begin(), p.end());
    const ResidualGraph residual(inst->graph, cur_edges);
    const auto cycles = difference_cycles(residual, best->paths.all_edges());
    bool has_negative_delay = false;
    for (const auto& c : cycles)
      if (residual.cycle_delay(c) < 0) has_negative_delay = true;
    EXPECT_TRUE(has_negative_delay);
  }
  EXPECT_GT(overshoots, 3);
}

}  // namespace
}  // namespace krsp::core
