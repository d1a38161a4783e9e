// Cross-generator parameterized property sweeps: the theorems hold on
// every workload family, not just ER graphs. Also tests the structural
// fact DESIGN.md §3's budget argument relies on (witness prefix
// confinement).
#include <gtest/gtest.h>

#include "baselines/brute_force.h"
#include "core/phase1.h"
#include "core/residual.h"
#include "core/solver.h"
#include "core/vertex_disjoint.h"
#include "flow/disjoint.h"
#include "graph/generators.h"
#include "graph/transform.h"
#include "util/rng.h"

namespace krsp {
namespace {

using core::Instance;
using core::RandomInstanceOptions;

struct Family {
  const char* name;
  std::function<graph::Digraph(util::Rng&)> draw;
};

std::vector<Family> families() {
  return {
      {"er_sparse",
       [](util::Rng& r) { return gen::erdos_renyi(r, 10, 0.25); }},
      {"er_dense", [](util::Rng& r) { return gen::erdos_renyi(r, 8, 0.5); }},
      {"waxman",
       [](util::Rng& r) {
         gen::WaxmanParams p;
         p.beta = 0.9;
         p.delay_scale = 10;
         return gen::waxman(r, 9, p);
       }},
      {"grid", [](util::Rng& r) { return gen::grid(r, 3, 3); }},
      {"layered",
       [](util::Rng& r) { return gen::layered_dag(r, 3, 3, 0.5, 2); }},
      {"scale_free",
       [](util::Rng& r) { return gen::barabasi_albert(r, 10, 2); }},
  };
}

class FamilySweep : public testing::TestWithParam<int> {
 protected:
  std::optional<Instance> draw_instance(util::Rng& rng, double slack) {
    RandomInstanceOptions opt;
    opt.k = 2;
    opt.delay_slack = slack;
    return core::make_random_instance(rng, opt, families()[GetParam()].draw);
  }
};

// Lemma 5 on every family.
TEST_P(FamilySweep, Phase1ScoreWithinTwo) {
  util::Rng rng(467 + GetParam());
  int checked = 0;
  for (int trial = 0; trial < 20; ++trial) {
    const auto inst = draw_instance(rng, 0.2);
    if (!inst) continue;
    const auto p1 = core::phase1_lagrangian(*inst);
    if (p1.status != core::Phase1Status::kApprox) continue;
    const auto best = baselines::brute_force_krsp(*inst);
    ASSERT_TRUE(best.has_value());
    ++checked;
    const double score =
        static_cast<double>(p1.delay) /
            std::max(1.0, static_cast<double>(inst->delay_bound)) +
        static_cast<double>(p1.cost) /
            std::max(1.0, static_cast<double>(best->cost));
    EXPECT_LE(score, 2.0 + 1e-9) << families()[GetParam()].name;
  }
  EXPECT_GE(checked, 2) << families()[GetParam()].name;
}

// Full solver bifactor on every family.
TEST_P(FamilySweep, SolverBifactorHolds) {
  util::Rng rng(479 + GetParam());
  core::SolverOptions opt;
  opt.mode = core::SolverOptions::Mode::kExactWeights;
  const core::KrspSolver solver(opt);
  int solved = 0;
  for (int trial = 0; trial < 15; ++trial) {
    const auto inst = draw_instance(rng, 0.25);
    if (!inst) continue;
    const auto best = baselines::brute_force_krsp(*inst);
    ASSERT_TRUE(best.has_value());
    const auto s = solver.solve(*inst);
    ASSERT_TRUE(s.has_paths()) << families()[GetParam()].name;
    ++solved;
    EXPECT_LE(s.delay, inst->delay_bound);
    EXPECT_LE(s.cost, 2 * (best->cost + 1)) << families()[GetParam()].name;
  }
  EXPECT_GE(solved, 3) << families()[GetParam()].name;
}

// Determinism on every family.
TEST_P(FamilySweep, SolverDeterministic) {
  util::Rng rng(487 + GetParam());
  for (int trial = 0; trial < 5; ++trial) {
    const auto inst = draw_instance(rng, 0.3);
    if (!inst) continue;
    const auto a = core::KrspSolver().solve(*inst);
    const auto b = core::KrspSolver().solve(*inst);
    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.cost, b.cost);
    EXPECT_EQ(a.delay, b.delay);
    if (a.has_paths()) {
      EXPECT_EQ(a.paths.paths(), b.paths.paths());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Families, FamilySweep, testing::Range(0, 6),
                         [](const auto& param_info) {
                           return std::string(
                               families()[param_info.param].name);
                         });

// DESIGN.md §3 budget argument: every witness cycle (optimal ⊕ current),
// anchored at its min-prefix rotation, keeps layer prefixes within
// [0, C_OPT] — this is what makes budget B = Ĉ complete for H+ (and the
// mirrored statement for H-).
TEST(WitnessConfinement, PrefixAscentBoundedByOptimalCost) {
  util::Rng rng(491);
  int cycles_checked = 0;
  for (int trial = 0; trial < 30; ++trial) {
    RandomInstanceOptions opt;
    opt.k = 2;
    opt.delay_slack = 0.2;
    const auto inst = core::random_er_instance(rng, 9, 0.35, opt);
    if (!inst) continue;
    const auto cur = flow::min_weight_disjoint_paths(
        inst->graph, inst->s, inst->t, inst->k, 1, 0);
    const auto best = baselines::brute_force_krsp(*inst);
    if (!cur || !best) continue;
    std::vector<graph::EdgeId> cur_edges;
    for (const auto& p : cur->paths)
      cur_edges.insert(cur_edges.end(), p.begin(), p.end());
    const core::ResidualGraph residual(inst->graph, cur_edges);
    for (const auto& cycle :
         core::difference_cycles(residual, best->paths.all_edges())) {
      ++cycles_checked;
      // Min-prefix rotation.
      graph::Cost prefix = 0, min_prefix = 0;
      std::size_t rot = 0;
      for (std::size_t i = 0; i < cycle.size(); ++i) {
        prefix += residual.digraph().edge(cycle[i]).cost;
        if (prefix < min_prefix) {
          min_prefix = prefix;
          rot = i + 1;
        }
      }
      auto rotated = cycle;
      std::rotate(rotated.begin(),
                  rotated.begin() +
                      static_cast<std::ptrdiff_t>(rot % rotated.size()),
                  rotated.end());
      graph::Cost ascent = 0;
      prefix = 0;
      for (const auto e : rotated) {
        prefix += residual.digraph().edge(e).cost;
        EXPECT_GE(prefix, 0) << "min-prefix rotation violated";
        ascent = std::max(ascent, prefix);
      }
      EXPECT_LE(ascent, best->cost) << "confinement bound violated";
    }
  }
  EXPECT_GT(cycles_checked, 10);
}

// Vertex-disjoint solver vs brute force on the split instance (exact
// vertex-disjoint oracle).
TEST(VertexDisjointSweep, MatchesSplitGraphOracleBounds) {
  util::Rng rng(499);
  int checked = 0;
  for (int trial = 0; trial < 15; ++trial) {
    RandomInstanceOptions opt;
    opt.k = 2;
    opt.delay_slack = 0.35;
    const auto inst = core::random_er_instance(rng, 8, 0.45, opt);
    if (!inst) continue;
    // Oracle: brute force on the split instance.
    const graph::SplitGraph split(inst->graph);
    Instance split_inst;
    split_inst.graph = split.digraph();
    split_inst.s = split.out_vertex(inst->s);
    split_inst.t = split.in_vertex(inst->t);
    split_inst.k = inst->k;
    split_inst.delay_bound = inst->delay_bound;
    const auto oracle = baselines::brute_force_krsp(split_inst);
    const auto s = core::solve_vertex_disjoint(*inst);
    ASSERT_EQ(oracle.has_value(), s.has_paths());
    if (!oracle) continue;
    ++checked;
    EXPECT_GE(s.cost, oracle->cost);
    EXPECT_LE(s.cost, 2 * (oracle->cost + 1));
    EXPECT_LE(s.delay, inst->delay_bound * 5 / 4 + 1);  // default scaled mode
  }
  EXPECT_GT(checked, 4);
}

}  // namespace
}  // namespace krsp
