// Miscellaneous boundary conditions across the public API: degenerate
// weights, tight budgets, parallel arcs, large-k, and polynomial-oracle
// cross-checks at sizes beyond the brute-force suites.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "api/krsp.h"
#include "baselines/brute_force.h"
#include "core/solver.h"
#include "flow/dinic.h"
#include "graph/generators.h"
#include "paths/pareto.h"
#include "paths/rsp.h"
#include "util/rng.h"

namespace krsp {
namespace {

using core::Instance;
using core::KrspSolver;
using core::SolverOptions;
using core::SolveStatus;

TEST(EdgeCases, AllZeroCostInstance) {
  // C_OPT = 0: the ratio guarantee is vacuous; the solver must still meet
  // the delay bound and not blow up on the zero lower bound.
  Instance inst;
  inst.graph.resize(4);
  inst.graph.add_edge(0, 1, 0, 5);
  inst.graph.add_edge(1, 3, 0, 5);
  inst.graph.add_edge(0, 2, 0, 1);
  inst.graph.add_edge(2, 3, 0, 1);
  inst.graph.add_edge(0, 3, 0, 1);
  inst.s = 0;
  inst.t = 3;
  inst.k = 2;
  inst.delay_bound = 4;
  const auto s = KrspSolver().solve(inst);
  ASSERT_TRUE(s.has_paths());
  EXPECT_EQ(s.cost, 0);
  EXPECT_LE(s.delay, 4);
}

TEST(EdgeCases, AllZeroDelayInstance) {
  // D = 0 with all-zero delays: every structural solution is feasible, so
  // the min-cost flow answer is optimal.
  Instance inst;
  inst.graph.resize(4);
  inst.graph.add_edge(0, 1, 3, 0);
  inst.graph.add_edge(1, 3, 4, 0);
  inst.graph.add_edge(0, 2, 1, 0);
  inst.graph.add_edge(2, 3, 2, 0);
  inst.s = 0;
  inst.t = 3;
  inst.k = 2;
  inst.delay_bound = 0;
  const auto s = KrspSolver().solve(inst);
  EXPECT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_EQ(s.cost, 10);
  EXPECT_EQ(s.delay, 0);
}

TEST(EdgeCases, ParallelArcsUsedAsDistinctPaths) {
  Instance inst;
  inst.graph.resize(2);
  inst.graph.add_edge(0, 1, 1, 1);
  inst.graph.add_edge(0, 1, 2, 2);
  inst.graph.add_edge(0, 1, 3, 3);
  inst.s = 0;
  inst.t = 1;
  inst.k = 3;
  inst.delay_bound = 6;
  const auto s = KrspSolver().solve(inst);
  ASSERT_TRUE(s.has_paths());
  EXPECT_EQ(s.paths.paths().size(), 3u);
  EXPECT_EQ(s.cost, 6);
  EXPECT_EQ(s.delay, 6);
}

TEST(EdgeCases, ExactlyTightBudgetSolvable) {
  util::Rng rng(569);
  int solved = 0;
  for (int trial = 0; trial < 10; ++trial) {
    core::RandomInstanceOptions opt;
    opt.k = 2;
    opt.delay_slack = 0.0;  // D = tightest possible
    const auto inst = core::random_er_instance(rng, 10, 0.35, opt);
    if (!inst) continue;
    SolverOptions sopt;
    sopt.mode = SolverOptions::Mode::kExactWeights;
    const auto s = KrspSolver(sopt).solve(*inst);
    ASSERT_TRUE(s.has_paths()) << inst->summary();
    ++solved;
    EXPECT_EQ(s.delay, inst->delay_bound);  // no slack to give back
  }
  EXPECT_GT(solved, 5);
}

TEST(EdgeCases, LargeKNearConnectivityLimit) {
  util::Rng rng(571);
  const auto g = gen::erdos_renyi(rng, 12, 0.6);
  const int max_k = flow::max_edge_disjoint_paths(g, 0, 11);
  ASSERT_GE(max_k, 3);
  Instance inst;
  inst.graph = g;
  inst.s = 0;
  inst.t = 11;
  inst.k = max_k;  // every disjoint path must be used
  const auto min_delay = core::min_possible_delay(inst);
  ASSERT_TRUE(min_delay.has_value());
  inst.delay_bound = *min_delay * 5 / 4;
  const auto s = KrspSolver().solve(inst);
  ASSERT_TRUE(s.has_paths());
  EXPECT_EQ(static_cast<int>(s.paths.paths().size()), max_k);
  // k+1 must fail structurally.
  inst.k = max_k + 1;
  inst.delay_bound = 1000000;
  EXPECT_EQ(KrspSolver().solve(inst).status,
            SolveStatus::kNoKDisjointPaths);
}

TEST(EdgeCases, SelfLoopEdgesNeverUsed) {
  Instance inst;
  inst.graph.resize(3);
  inst.graph.add_edge(0, 0, 0, 0);  // self loop, free
  inst.graph.add_edge(0, 1, 1, 1);
  inst.graph.add_edge(1, 1, 0, 0);
  inst.graph.add_edge(1, 2, 1, 1);
  inst.s = 0;
  inst.t = 2;
  inst.k = 1;
  inst.delay_bound = 5;
  const auto s = KrspSolver().solve(inst);
  ASSERT_TRUE(s.has_paths());
  EXPECT_EQ(s.paths.paths()[0].size(), 2u);
  EXPECT_TRUE(s.paths.is_valid(inst));
}

// Polynomial-oracle cross-check at n = 25: RSP FPTAS vs exact Pareto
// frontier (both poly, no brute force involved).
TEST(EdgeCases, FptasVsParetoAtMediumSize) {
  util::Rng rng(577);
  int compared = 0;
  for (int trial = 0; trial < 8; ++trial) {
    gen::WeightRange w;
    w.cost_max = 30;
    w.delay_max = 30;
    const auto g = gen::erdos_renyi(rng, 25, 0.12, w);
    const graph::Delay D = 60;
    const auto exact = paths::rsp_via_frontier(g, 0, 24, D);
    const auto approx = paths::rsp_fptas(g, 0, 24, D, 0.25);
    ASSERT_EQ(exact.has_value(), approx.has_value());
    if (!exact) continue;
    ++compared;
    EXPECT_LE(approx->delay, D);
    EXPECT_LE(static_cast<double>(approx->cost),
              1.25 * static_cast<double>(exact->cost) + 1e-9);
  }
  EXPECT_GT(compared, 3);
}

TEST(EdgeCases, HugeWeightsNoOverflow) {
  // Weights near 1e9: combined Lagrangian weights reach ~1e18 — inside
  // int64 but only barely; the solver must stay exact.
  Instance inst;
  inst.graph.resize(4);
  inst.graph.add_edge(0, 1, 1000000000, 1);
  inst.graph.add_edge(1, 3, 1000000000, 1);
  inst.graph.add_edge(0, 2, 1, 1000000000);
  inst.graph.add_edge(2, 3, 1, 1000000000);
  inst.s = 0;
  inst.t = 3;
  inst.k = 2;
  inst.delay_bound = 2000000002;
  const auto s = KrspSolver().solve(inst);
  ASSERT_TRUE(s.has_paths());
  EXPECT_EQ(s.delay, 2000000002);
  EXPECT_EQ(s.cost, 2000000002);
}

// Phase 1's first call prices an arc at (Σdelay + 1)·cost + delay. Here
// Σdelay + 1 = 2^32, so arc 0→1 (cost 2^32 + 1) costs 2^64 + 2^32 + 1,
// which used to wrap to 2^32 + 1 and make 0→1→3 (cost 4294967297) look
// "optimal" although 0→2→3 costs 4 within D; with cost 2^31 + 1 the wrap
// went negative and was reported as a negative arc cost. Every mode must
// fail and name the overflow.
TEST(EdgeCases, WrappingPhase1WeightFailsAndNamesTheOverflow) {
  for (const graph::Cost wide : {4294967297LL, 2147483649LL}) {
    api::SolveRequest req;
    Instance& inst = req.instance;
    inst.graph.resize(4);
    inst.graph.add_edge(0, 1, wide, 1);
    inst.graph.add_edge(1, 3, 0, 1);
    inst.graph.add_edge(0, 2, 2, 1);
    inst.graph.add_edge(2, 3, 2, 4294967292LL);
    inst.s = 0;
    inst.t = 3;
    inst.k = 1;
    inst.delay_bound = 9000000000LL;
    for (const api::Mode mode : {api::Mode::kScaled, api::Mode::kExactWeights,
                                 api::Mode::kPhase1Only}) {
      req.mode = mode;
      const api::SolveResult r = api::Solver::solve(req);
      EXPECT_EQ(r.status, SolveStatus::kFailed) << "cost " << r.cost;
      EXPECT_NE(r.error.find("overflow"), std::string::npos) << r.error;
    }
  }
}

// Two arcs of cost 5e18: every s–t path costs more than INT64_MAX. The
// checked Σcost must refuse the instance before any search adds the two
// costs, in every mode.
TEST(EdgeCases, PathCostPastInt64FailsAndNamesTheOverflow) {
  api::SolveRequest req;
  Instance& inst = req.instance;
  inst.graph.resize(3);
  inst.graph.add_edge(0, 1, 5000000000000000000LL, 0);
  inst.graph.add_edge(1, 2, 5000000000000000000LL, 0);
  inst.s = 0;
  inst.t = 2;
  inst.k = 1;
  inst.delay_bound = 5;
  for (const api::Mode mode : {api::Mode::kScaled, api::Mode::kExactWeights,
                               api::Mode::kPhase1Only}) {
    req.mode = mode;
    const api::SolveResult r = api::Solver::solve(req);
    EXPECT_EQ(r.status, SolveStatus::kFailed) << "cost " << r.cost;
    EXPECT_NE(r.error.find("overflow"), std::string::npos) << r.error;
  }
}

// An instance with no edges is valid input (m = 0 parses and validates);
// every mode must report that no k disjoint paths exist.
TEST(EdgeCases, EdgelessInstanceHasNoDisjointPaths) {
  api::SolveRequest req;
  Instance& inst = req.instance;
  inst.graph.resize(2);
  inst.s = 0;
  inst.t = 1;
  inst.k = 1;
  inst.delay_bound = 5;
  for (const api::Mode mode : {api::Mode::kScaled, api::Mode::kExactWeights,
                               api::Mode::kPhase1Only}) {
    req.mode = mode;
    const api::SolveResult r = api::Solver::solve(req);
    EXPECT_EQ(r.status, SolveStatus::kNoKDisjointPaths) << r.error;
    EXPECT_FALSE(r.has_paths());
  }
}

// Large weights that stay inside the min-cost-flow range: phase 1's first
// two calls total (Σd + 1)·Σc + Σd = 300T + 14 and (Σc + 1)·Σd + Σc =
// 300T + 14 ≈ 2.7e18 for T = 2^53, within INT64_MAX / 2 ≈ 4.6e18. Three
// two-hop routes with (cost, delay) per hop: A (1, 4T), B (2, 5T),
// C (4, T). D = 10T admits only {A, C}; the cheapest pair {A, B} misses
// D, so phase 1 runs LARAC. Costs stay small because exact-weights
// cancellation is pseudo-polynomial in cost.
TEST(EdgeCases, LargeSafeWeightsSolveToBruteForceOptimum) {
  constexpr std::int64_t T = std::int64_t{1} << 53;
  api::SolveRequest req;
  Instance& inst = req.instance;
  inst.graph.resize(5);
  for (const auto& [via, cost, delay] :
       {std::tuple{1, 1, 4 * T}, std::tuple{2, 2, 5 * T},
        std::tuple{3, 4, T}}) {
    inst.graph.add_edge(0, via, cost, delay);
    inst.graph.add_edge(via, 4, cost, delay);
  }
  inst.s = 0;
  inst.t = 4;
  inst.k = 2;
  inst.delay_bound = 10 * T;
  const auto best = baselines::brute_force_krsp(inst);
  ASSERT_TRUE(best.has_value());
  req.mode = api::Mode::kExactWeights;
  const api::SolveResult r = api::Solver::solve(req);
  ASSERT_TRUE(r.has_paths()) << r.error;
  EXPECT_GT(r.telemetry.phase1_mcmf_calls, 2);
  EXPECT_EQ(r.cost, best->cost);
  EXPECT_LE(r.delay, inst.delay_bound);
  EXPECT_TRUE(r.paths.is_valid(inst));
}

// Scaled mode multiplies each delay by S_d = ⌈kn/ε1⌉ = 12 before dividing
// by D: 1.1e18 · 12 passes int64 although the scaled delay (16) does not.
// The only path within (1+ε1)·D is 0→1→2 (cost 1, delay 1e17); every
// phase-1 weight of this instance fits in int64.
TEST(EdgeCases, ScaledWeightsWhoseProductPassesInt64) {
  api::SolveRequest req;
  Instance& inst = req.instance;
  inst.graph.resize(3);
  inst.graph.add_edge(0, 2, 0, 1100000000000000000LL);
  inst.graph.add_edge(0, 1, 1, 50000000000000000LL);
  inst.graph.add_edge(1, 2, 0, 50000000000000000LL);
  inst.s = 0;
  inst.t = 2;
  inst.k = 1;
  inst.delay_bound = 800000000000000000LL;
  for (const api::Mode mode : {api::Mode::kScaled, api::Mode::kExactWeights}) {
    req.mode = mode;
    const api::SolveResult r = api::Solver::solve(req);
    ASSERT_TRUE(r.has_paths()) << r.error;
    EXPECT_EQ(r.cost, 1);
    EXPECT_EQ(r.delay, 100000000000000000LL);
  }
}

/// k = 1 with three s→t routes (cost, delay): A (1, 10), B (5, 5) and
/// C (3, 8), D = 8. Phase 1 misses D, so scaled mode runs its cap search;
/// the optimum is C.
api::SolveRequest three_route_request() {
  api::SolveRequest req;
  Instance& inst = req.instance;
  inst.graph.resize(5);
  for (const auto& [via, cost, delay] :
       {std::tuple{1, 1, 10}, std::tuple{2, 5, 5}, std::tuple{3, 3, 8}}) {
    inst.graph.add_edge(0, via, cost, delay);
    inst.graph.add_edge(via, 4, 0, 0);
  }
  inst.s = 0;
  inst.t = 4;
  inst.k = 1;
  inst.delay_bound = 8;
  return req;
}

// For ε1 = 1e-300, ⌈kn/ε1⌉ is past int64: delay scaling is skipped (S_d
// is not below D), not fed an out-of-range conversion.
TEST(EdgeCases, TinyEps1SkipsDelayScaling) {
  api::SolveRequest req = three_route_request();
  req.eps1 = 1e-300;
  const api::SolveResult r = api::Solver::solve(req);
  ASSERT_TRUE(r.has_paths()) << r.error;
  EXPECT_GT(r.telemetry.guess_attempts, 0);
  EXPECT_EQ(r.cost, 3);
  EXPECT_EQ(r.delay, 8);
}

// A deadline past the steady clock's range never expires: the solve runs
// to completion, as without a deadline.
TEST(EdgeCases, DeadlinePastTheClockRangeIsUnbounded) {
  api::SolveRequest req = three_route_request();
  const api::SolveResult unbounded = api::Solver::solve(req);
  req.deadline_seconds = 1e300;
  const api::SolveResult r = api::Solver::solve(req);
  ASSERT_TRUE(r.has_paths()) << r.error;
  EXPECT_GT(r.telemetry.guess_attempts, 0);
  EXPECT_FALSE(r.telemetry.deadline_expired);
  EXPECT_EQ(r.degradation(), api::DegradationStep::kNone);
  EXPECT_EQ(r.cost, unbounded.cost);
  EXPECT_EQ(r.paths.paths(), unbounded.paths.paths());
}

}  // namespace
}  // namespace krsp
