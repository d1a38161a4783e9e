#include "core/solver.h"

#include <algorithm>

#include "core/scaling.h"
#include "core/workspace.h"
#include "util/timer.h"

namespace krsp::core {

namespace {

graph::Cost ceil_of(const util::Rational& r) {
  KRSP_CHECK(r >= util::Rational(0));
  return (r.num() + r.den() - 1) / r.den();
}

/// Phase 1 gets this fraction of the remaining budget; the rest funds the
/// cancellation and guess loops. Phase 1's feasibility answers stay exact
/// regardless (its two bracketing flows always run).
constexpr double kPhase1DeadlineFraction = 0.4;

util::Deadline phase1_deadline(const util::Deadline& total) {
  if (!total.bounded()) return total;
  const double remaining = std::max(0.0, total.remaining_seconds());
  return total.clipped_after_seconds(remaining * kPhase1DeadlineFraction);
}

}  // namespace

Solution from_phase1(const Phase1Result& p1) {
  Solution s;
  s.telemetry.phase1_mcmf_calls = p1.mcmf_calls;
  s.telemetry.phase1_vertices_settled = p1.vertices_settled;
  s.telemetry.lambda = p1.lambda;
  s.telemetry.cost_lower_bound = p1.cost_lower_bound;
  s.telemetry.deadline_expired = p1.deadline_hit;
  switch (p1.status) {
    case Phase1Status::kNoKDisjointPaths:
      s.status = SolveStatus::kNoKDisjointPaths;
      return s;
    case Phase1Status::kInfeasible:
      s.status = SolveStatus::kInfeasible;
      return s;
    case Phase1Status::kOptimal:
      s.status = SolveStatus::kOptimal;
      s.telemetry.phase1_was_optimal = true;
      break;
    case Phase1Status::kApprox:
      s.status = SolveStatus::kApprox;
      break;
  }
  s.paths = p1.paths;
  s.cost = p1.cost;
  s.delay = p1.delay;
  return s;
}

const char* degradation_step_name(DegradationStep step) {
  switch (step) {
    case DegradationStep::kNone:
      return "none";
    case DegradationStep::kScaledResult:
      return "scaled-result";
    case DegradationStep::kExactPartial:
      return "exact-partial";
    case DegradationStep::kPhase1Feasible:
      return "phase1-feasible";
    case DegradationStep::kReducedK:
      return "reduced-k";
    case DegradationStep::kOutage:
      return "outage";
  }
  return "unknown";
}

Solution KrspSolver::solve(const Instance& inst) const {
  return solve(inst, util::Deadline::after_seconds(options_.deadline_seconds));
}

Solution KrspSolver::solve(const Instance& inst, const util::Deadline& deadline,
                           SolveWorkspace* ws) const {
  const util::WallTimer timer;
  Solution s;
  switch (options_.mode) {
    case SolverOptions::Mode::kExactWeights:
    case SolverOptions::Mode::kScaled:
      s = solve_with_cap_search(inst, deadline, ws);
      break;
    case SolverOptions::Mode::kPhase1Only:
      s = solve_phase1_only(inst, deadline, ws);
      break;
  }
  s.telemetry.wall_seconds = timer.seconds();
  return s;
}

Solution KrspSolver::solve_phase1_only(const Instance& inst,
                                       const util::Deadline& deadline,
                                       SolveWorkspace* ws) const {
  const auto p1 =
      phase1_lagrangian(inst, deadline, ws != nullptr ? &ws->mcmf : nullptr);
  Solution s = from_phase1(p1);
  if (s.status == SolveStatus::kApprox && s.delay > inst.delay_bound)
    s.status = SolveStatus::kApproxDelayOver;
  return s;
}

Solution KrspSolver::solve_with_cap_search(const Instance& inst,
                                           const util::Deadline& deadline,
                                           SolveWorkspace* ws) const {
  // Phase 1 on the original weights settles feasibility questions exactly
  // and provides the Ĉ search range.
  const auto p1 = phase1_lagrangian(inst, phase1_deadline(deadline),
                                    ws != nullptr ? &ws->mcmf : nullptr);
  Solution s = from_phase1(p1);
  if (s.status != SolveStatus::kApprox) return s;  // optimal or no solution
  if (s.delay <= inst.delay_bound) return s;       // Lemma 5 already met D

  // Search the cap Ĉ over [max(1,⌈C_LP⌉), cost(F_hi)]. Success is monotone
  // above C_OPT; in exact-weights mode (Lemma 3) a minimal succeeding Ĉ†
  // adjacent to a failure satisfies Ĉ† <= C_OPT + 1, certifying
  // cost <= 2·(C_OPT + 1). Scaled mode (Theorem 4) runs the same search,
  // each guess on its own scaled instance.
  KRSP_CHECK(p1.feasible_alternative.has_value());
  const PathSet& f_hi = *p1.feasible_alternative;
  const graph::Cost c_hi = f_hi.total_cost(inst.graph);
  const graph::Cost lo0 =
      std::max<graph::Cost>(1, ceil_of(p1.cost_lower_bound));
  const graph::Cost hi0 = std::max(lo0, c_hi);

  const bool scaled = options_.mode == SolverOptions::Mode::kScaled;
  CycleCancelOptions cancel_options = options_.cancel;
  cancel_options.deadline = deadline;
  // Internal ε2/2 keeps the flooring loss within the advertised (2+ε2).
  const double eps2 = options_.eps2 / 2.0;
  const graph::Delay delay_limit =
      scaled_delay_limit(options_.eps1, inst.delay_bound);
  SolverOptions inner_options = options_;
  inner_options.mode = SolverOptions::Mode::kExactWeights;
  const KrspSolver inner_solver(inner_options);

  // What one guess produced, in original weights.
  struct Attempt {
    PathSet paths;
    graph::Cost cost = 0;
    graph::Delay delay = 0;
    CycleCancelTelemetry cancel;
  };
  bool deadline_cut = false;
  const auto attempt = [&](graph::Cost guess) -> std::optional<Attempt> {
    if (!scaled) {
      auto r = cancel_cycles(inst, p1.paths, guess, cancel_options,
                             ws != nullptr ? &ws->finder : nullptr);
      if (r.status == CancelStatus::kDeadlineExpired) deadline_cut = true;
      if (r.status != CancelStatus::kSuccess) return std::nullopt;
      return Attempt{std::move(r.paths), r.cost, r.delay,
                     std::move(r.telemetry)};
    }
    const auto scaled_inst = scale_instance(inst, options_.eps1, eps2, guess);
    // The inner solve shares the same absolute deadline, so a slow guess
    // cannot starve the attempts after it of their own expiry check. It
    // also shares the workspace: the scaled graph differs per guess, but
    // the workspace re-keys itself by topology, and within one inner solve
    // the LARAC iterations still hit the cache.
    Solution inner = inner_solver.solve(scaled_inst.scaled, deadline, ws);
    if (inner.telemetry.deadline_expired) deadline_cut = true;
    if (!inner.has_paths()) return std::nullopt;
    // Edge ids are shared between the scaled and original graphs.
    const graph::Cost cost = inner.paths.total_cost(inst.graph);
    const graph::Delay delay = inner.paths.total_delay(inst.graph);
    if (delay > delay_limit) return std::nullopt;
    if (cost > scaled_cost_limit(options_.eps2, guess)) return std::nullopt;
    return Attempt{std::move(inner.paths), cost, delay,
                   std::move(inner.telemetry.cancel)};
  };

  std::optional<Attempt> best;
  graph::Cost best_guess = 0;
  const auto run = [&](graph::Cost guess) -> bool {
    if (deadline.expired()) {
      // Abandon the search, serve the best anytime result below.
      deadline_cut = true;
      return false;
    }
    ++s.telemetry.guess_attempts;
    auto a = attempt(guess);
    if (!a) return false;
    if (!best || guess < best_guess) {
      best = std::move(a);
      best_guess = guess;
    }
    return true;
  };

  if (options_.guess == SolverOptions::GuessStrategy::kBinarySearch) {
    graph::Cost lo = lo0, hi = hi0;
    if (run(hi)) {
      while (lo < hi && !deadline_cut) {
        const graph::Cost mid = lo + (hi - lo) / 2;
        if (run(mid))
          hi = mid;
        else
          lo = mid + 1;
      }
    }
  } else {
    graph::Cost guess = lo0;
    // Saturating doubling: guess * 2 would wrap for guesses past
    // INT64_MAX/2 (huge cost bounds), so jump straight to hi0 instead.
    while (!run(guess) && guess < hi0 && !deadline_cut)
      guess = guess > hi0 / 2 ? hi0 : std::max<graph::Cost>(guess * 2, 1);
  }

  if (deadline_cut) s.telemetry.deadline_expired = true;
  s.status = SolveStatus::kApprox;
  // The certified delay-feasible phase-1 alternative: served when no guess
  // succeeded (deadline expiry, or an internal limit tripping where theory
  // guarantees success at Ĉ = c_hi >= C_OPT), and kept when it is cheaper.
  const auto serve_f_hi = [&] {
    s.telemetry.used_feasible_fallback = true;
    s.paths = f_hi;
    s.cost = c_hi;
    s.delay = f_hi.total_delay(inst.graph);
  };
  if (!best) {
    if (deadline_cut)
      s.telemetry.degradation = DegradationStep::kPhase1Feasible;
    serve_f_hi();
    return s;
  }

  // A cut-short search still certifies cost <= cost(start) + Ĉ† for the
  // best cap that succeeded — just not minimality of Ĉ†.
  if (deadline_cut)
    s.telemetry.degradation = scaled ? DegradationStep::kScaledResult
                                     : DegradationStep::kExactPartial;
  s.telemetry.cost_guess_used = best_guess;
  s.telemetry.cancel = std::move(best->cancel);
  if (c_hi < best->cost) {
    serve_f_hi();
  } else {
    s.paths = std::move(best->paths);
    s.cost = best->cost;
    s.delay = best->delay;
  }
  return s;
}

}  // namespace krsp::core
