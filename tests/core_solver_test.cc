#include "core/solver.h"

#include <gtest/gtest.h>

#include <ostream>

#include "baselines/brute_force.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace krsp::core {
namespace {

Instance gadget_instance() {
  const auto fig = gen::figure1_gadget(4, 5);
  Instance inst;
  inst.graph = fig.graph;
  inst.s = fig.s;
  inst.t = fig.t;
  inst.k = fig.k;
  inst.delay_bound = fig.delay_bound;
  return inst;
}

TEST(Solver, GadgetSolvedToOptimalCost) {
  for (const auto mode : {SolverOptions::Mode::kExactWeights,
                          SolverOptions::Mode::kScaled}) {
    SolverOptions opt;
    opt.mode = mode;
    const auto s = KrspSolver(opt).solve(gadget_instance());
    ASSERT_EQ(s.status, SolveStatus::kApprox);
    EXPECT_EQ(s.cost, 5);
    EXPECT_EQ(s.delay, 4);
  }
}

TEST(Solver, DetectsNoKDisjointPaths) {
  Instance inst;
  inst.graph.resize(3);
  inst.graph.add_edge(0, 1, 1, 1);
  inst.graph.add_edge(1, 2, 1, 1);
  inst.s = 0;
  inst.t = 2;
  inst.k = 2;
  inst.delay_bound = 100;
  EXPECT_EQ(KrspSolver().solve(inst).status, SolveStatus::kNoKDisjointPaths);
}

TEST(Solver, DetectsInfeasibleBudget) {
  Instance inst;
  inst.graph.resize(4);
  inst.graph.add_edge(0, 1, 1, 5);
  inst.graph.add_edge(1, 3, 1, 5);
  inst.graph.add_edge(0, 2, 1, 5);
  inst.graph.add_edge(2, 3, 1, 5);
  inst.s = 0;
  inst.t = 3;
  inst.k = 2;
  inst.delay_bound = 19;  // min possible is 20
  EXPECT_EQ(KrspSolver().solve(inst).status, SolveStatus::kInfeasible);
}

TEST(Solver, OptimalWhenMinCostFlowFeasible) {
  Instance inst;
  inst.graph.resize(4);
  inst.graph.add_edge(0, 1, 1, 1);
  inst.graph.add_edge(1, 3, 1, 1);
  inst.graph.add_edge(0, 2, 1, 1);
  inst.graph.add_edge(2, 3, 1, 1);
  inst.s = 0;
  inst.t = 3;
  inst.k = 2;
  inst.delay_bound = 4;
  const auto s = KrspSolver().solve(inst);
  EXPECT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_EQ(s.cost, 4);
  EXPECT_TRUE(s.telemetry.phase1_was_optimal);
}

TEST(Solver, DeterministicAcrossRuns) {
  util::Rng rng(277);
  RandomInstanceOptions ropt;
  ropt.k = 2;
  ropt.delay_slack = 0.25;
  const auto inst = random_er_instance(rng, 10, 0.3, ropt);
  ASSERT_TRUE(inst.has_value());
  const auto a = KrspSolver().solve(*inst);
  const auto b = KrspSolver().solve(*inst);
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.cost, b.cost);
  EXPECT_EQ(a.delay, b.delay);
}

// ---------------------------------------------------------------------------
// Headline property: both solver modes meet the paper's bifactor guarantees
// against the brute-force optimum, across generators and k.

// gtest prints a parameter that has no PrintTo as its raw bytes, and the
// test names carry that print, so the sweep names its two guarantees with
// its own enum: the names do not move when SolverOptions::Mode's
// enumerators do.
enum class Guarantee { kExactWeights, kScaled };

struct SweepParam {
  Guarantee guarantee;
  int k;
  double slack;
  const char* name;
};

// Without this gtest prints a SweepParam as its raw bytes, the name
// pointer's included, and the ctest names change from build to build.
void PrintTo(const SweepParam& param, std::ostream* os) {
  *os << param.name << " (slack " << param.slack << ")";
}

class SolverGuaranteeSweep : public testing::TestWithParam<SweepParam> {};

TEST_P(SolverGuaranteeSweep, BifactorBoundsHold) {
  const auto param = GetParam();
  const bool exact = param.guarantee == Guarantee::kExactWeights;
  util::Rng rng(281 + param.k);
  SolverOptions opt;
  opt.mode = exact ? SolverOptions::Mode::kExactWeights
                   : SolverOptions::Mode::kScaled;
  opt.eps1 = 0.5;
  opt.eps2 = 0.5;
  const KrspSolver solver(opt);

  int solved = 0;
  for (int trial = 0; trial < 25; ++trial) {
    RandomInstanceOptions ropt;
    ropt.k = param.k;
    ropt.delay_slack = param.slack;
    const auto inst = random_er_instance(rng, 9, 0.4, ropt);
    if (!inst) continue;
    const auto best = baselines::brute_force_krsp(*inst);
    ASSERT_TRUE(best.has_value());  // feasible by construction
    const auto s = solver.solve(*inst);
    ASSERT_TRUE(s.has_paths()) << inst->summary();
    ++solved;
    EXPECT_TRUE(s.paths.is_valid(*inst));
    // Delay side.
    if (exact) {
      EXPECT_LE(s.delay, inst->delay_bound) << inst->summary();
    } else {
      EXPECT_LE(static_cast<double>(s.delay),
                (1.0 + opt.eps1) * static_cast<double>(inst->delay_bound) +
                    1e-9)
          << inst->summary();
    }
    // Cost side: 2(C_OPT + 1) for exact weights, (2+eps2)(C_OPT + 1)
    // for scaled (the +1 from the integral cap search boundary).
    const double cap = exact ? 2.0 * static_cast<double>(best->cost + 1)
                             : (2.0 + opt.eps2) *
                                   static_cast<double>(best->cost + 1);
    EXPECT_LE(static_cast<double>(s.cost), cap + 1e-9)
        << inst->summary() << " opt=" << best->cost;
    // Never reports optimal unless it is.
    if (s.status == SolveStatus::kOptimal) {
      EXPECT_EQ(s.cost, best->cost);
    }
  }
  EXPECT_GT(solved, 8) << "sweep exercised too few instances";
}

INSTANTIATE_TEST_SUITE_P(
    Modes, SolverGuaranteeSweep,
    testing::Values(
        SweepParam{Guarantee::kExactWeights, 2, 0.2, "exact_k2"},
        SweepParam{Guarantee::kExactWeights, 3, 0.3, "exact_k3"},
        SweepParam{Guarantee::kScaled, 2, 0.2, "scaled_k2"},
        SweepParam{Guarantee::kScaled, 3, 0.3, "scaled_k3"},
        SweepParam{Guarantee::kExactWeights, 1, 0.2, "exact_k1"},
        SweepParam{Guarantee::kScaled, 1, 0.3, "scaled_k1"}),
    [](const testing::TestParamInfo<SweepParam>& param_info) {
      return std::string(param_info.param.name);
    });

// Doubling guess strategy keeps validity (weaker constant).
TEST(Solver, DoublingStrategyStillFeasible) {
  util::Rng rng(283);
  SolverOptions opt;
  opt.guess = SolverOptions::GuessStrategy::kDoubling;
  opt.mode = SolverOptions::Mode::kExactWeights;
  const KrspSolver solver(opt);
  int solved = 0;
  for (int trial = 0; trial < 15; ++trial) {
    RandomInstanceOptions ropt;
    ropt.k = 2;
    ropt.delay_slack = 0.25;
    const auto inst = random_er_instance(rng, 9, 0.35, ropt);
    if (!inst) continue;
    const auto s = solver.solve(*inst);
    if (!s.has_paths()) continue;
    ++solved;
    EXPECT_LE(s.delay, inst->delay_bound);
    EXPECT_TRUE(s.paths.is_valid(*inst));
  }
  EXPECT_GT(solved, 5);
}

TEST(Solver, Phase1OnlyModeReportsDelayOver) {
  const auto inst = gadget_instance();
  SolverOptions opt;
  opt.mode = SolverOptions::Mode::kPhase1Only;
  const auto s = KrspSolver(opt).solve(inst);
  // Phase 1 on the gadget picks the cheap slow pair: delay D+1 > D.
  EXPECT_EQ(s.status, SolveStatus::kApproxDelayOver);
  EXPECT_GT(s.delay, inst.delay_bound);
  EXPECT_LE(s.delay, 2 * inst.delay_bound + 2);
}

TEST(Solver, TelemetryPopulated) {
  const auto s = KrspSolver().solve(gadget_instance());
  EXPECT_GT(s.telemetry.phase1_mcmf_calls, 0);
  EXPECT_GT(s.telemetry.guess_attempts, 0);
  EXPECT_GT(s.telemetry.cost_guess_used, 0);
  EXPECT_GE(s.telemetry.wall_seconds, 0.0);
}

}  // namespace
}  // namespace krsp::core
