// Phase 1 of the paper's algorithm (Lemma 5): a starting solution whose
// delay/D + cost/C_OPT <= 2 — equivalently, delay <= αD and
// cost <= (2-α)·C_OPT for some α ∈ [0, 2].
//
// The paper invokes the LP-rounding algorithm of [9]. We realize the same
// guarantee combinatorially: the LP in question is a min-cost k-flow with a
// single delay side constraint, whose Lagrangian dual
//     max_λ≥0 [ min_F ( c(F) + λ·d(F) ) − λ·D ]
// has integral subproblems (min-cost flow), so by integrality of the flow
// polytope the dual optimum equals the LP optimum C_LP (tests cross-check
// this against the simplex solver). At the breakpoint λ* two optimal
// integral flows bracket the budget: F_hi with d ≤ D and F_lo with d > D;
// the convex combination meeting d = D costs exactly C_LP, hence the better
// of the two under the score d/D + c/C_LP is at most 2 — Lemma 5.
#pragma once

#include <optional>

#include "core/instance.h"
#include "core/path_set.h"
#include "util/deadline.h"
#include "util/rational.h"

namespace krsp::flow {
class McfWorkspace;
}

namespace krsp::core {

enum class Phase1Status {
  kOptimal,           // min-cost flow already satisfies D: exact optimum
  kApprox,            // Lemma 5 guarantee holds; delay may exceed D
  kNoKDisjointPaths,  // graph has fewer than k disjoint s→t paths
  kInfeasible,        // k disjoint paths exist but none meet the delay bound
};

struct Phase1Result {
  Phase1Status status = Phase1Status::kInfeasible;
  PathSet paths;                     // empty unless kOptimal/kApprox
  graph::Cost cost = 0;
  graph::Delay delay = 0;
  /// Certified lower bound on C_OPT: L(λ*) − λ*·D (== LP optimum).
  util::Rational cost_lower_bound = 0;
  /// The breakpoint multiplier λ*.
  util::Rational lambda = 0;
  /// Delay-feasible alternative (F_hi) kept for callers that must start
  /// from a feasible point; equals `paths` when that one was selected.
  std::optional<PathSet> feasible_alternative;
  int mcmf_calls = 0;
  /// Vertices settled over all searches of those calls (each call runs k
  /// successive-shortest-path searches, goal-directed toward t).
  std::int64_t vertices_settled = 0;
  /// The deadline expired mid-LARAC: the bracket (F_lo, F_hi) and the dual
  /// bound from the last λ are returned instead of the breakpoint λ*. The
  /// result is still a valid Lemma-5-style answer — any λ >= 0 yields a
  /// correct lower bound — just with a looser C_LP.
  bool deadline_hit = false;
};

/// Runs phase 1. Never returns paths violating structural validity; on
/// kApprox the returned solution satisfies delay/D + cost/C_LP <= 2.
/// An expired `deadline` cuts the LARAC iteration short (see
/// Phase1Result::deadline_hit); the two bracketing MCMF calls always run,
/// so feasibility answers (kOptimal/kInfeasible/kNoKDisjointPaths) are
/// exact regardless of the budget. Each run first validates `inst` in full
/// (Instance::validate, throwing util::CheckError: the one O(m) model
/// check of a KrspSolver solve) and checks Σcost and Σdelay for overflow,
/// then computes every vertex's cost and delay distance to t
/// (two reverse Dijkstras, each stopped past s, so a distance beyond s's
/// reads as the search's bound B: paths::dijkstra_to); under the weight
/// q·cost + p·delay, q·dist_cost(v) + p·dist_delay(v) is a consistent lower
/// bound on v's weight to t, so each MCMF search runs as an A* toward t. One
/// min-cost-flow network serves all LARAC iterations: `ws` (optional) keeps
/// it across solves too, its topology checked in each call's re-pricing
/// pass; without it the run uses its own. Results are identical either way.
Phase1Result phase1_lagrangian(const Instance& inst,
                               const util::Deadline& deadline = {},
                               flow::McfWorkspace* ws = nullptr);

}  // namespace krsp::core
