// Public solver facade: the paper's full pipeline.
//
//   Mode::kExactWeights — Lemma 3: phase 1, then bicameral cycle
//       cancellation with a binary search on the cost cap Ĉ. Bifactor
//       (1, 2) (delay strictly within D; cost <= 2·Ĉ† with Ĉ† <= C_OPT + 1,
//       see core/bicameral.cc on the strict type-2 rule). Pseudo-polynomial.
//   Mode::kScaled — Theorem 4: delays scaled against D, costs against a
//       guessed Ĉ (outer binary search), exact-weights core on the scaled
//       instance. Bifactor (1+ε1, 2+ε2), polynomial.
//   Mode::kPhase1Only — Lemma 5 only (the [9]-equivalent LP rounding):
//       bifactor (2, 2), delay may exceed D.
#pragma once

#include "core/cycle_cancel.h"
#include "core/instance.h"
#include "core/path_set.h"
#include "core/phase1.h"
#include "util/deadline.h"
#include "util/rational.h"

namespace krsp::core {

enum class SolveStatus {
  kOptimal,           // provably minimum cost within the delay bound
  kApprox,            // approximation guarantee of the selected mode holds
  kApproxDelayOver,   // kPhase1Only: solution valid but delay in (D, 2D]
  kInfeasible,        // no k disjoint paths meet the delay bound
  kNoKDisjointPaths,  // fewer than k edge-disjoint s→t paths exist
  kFailed,            // internal limit tripped (reported, never silent)
};

struct SolverOptions {
  /// Which of the paper's algorithms to run. The enumerator values are
  /// mixed into request fingerprints (cache and router-ring keys) and
  /// index the per-mode solve-time histogram, so their order is fixed.
  enum class Mode { kScaled, kExactWeights, kPhase1Only };
  Mode mode = Mode::kScaled;
  double eps1 = 0.25;  // delay slack (Theorem 4)
  double eps2 = 0.25;  // cost slack (Theorem 4)

  /// Ĉ search strategy for the cancellation cap. kBinarySearch certifies
  /// the 2·(C_OPT+1) cost bound; kDoubling trades a factor <= 2 on the cap
  /// for fewer cancellation runs.
  enum class GuessStrategy { kBinarySearch, kDoubling };
  GuessStrategy guess = GuessStrategy::kBinarySearch;

  /// Wall-clock budget for the whole solve; <= 0 = unbounded. On expiry
  /// the solver walks the anytime degradation ladder (DegradationStep)
  /// instead of running to completion: the result is always structurally
  /// valid and delay-feasible, only the cost guarantee weakens. Expiry is
  /// honored between pipeline iterations, so the overshoot is bounded by
  /// one MCMF call / cancellation round.
  double deadline_seconds = 0.0;

  CycleCancelOptions cancel;
};

/// Anytime degradation ladder recorded when a deadline cuts a solve short.
/// Steps are ordered best → worst; the solver emits the first four, the
/// resilience controller the last two (serving fewer paths or none is a
/// provisioning-level decision, not a solver one).
enum class DegradationStep {
  kNone,            // full algorithm completed within budget
  kScaledResult,    // scaled-mode Ĉ search cut short; best verified attempt
  kExactPartial,    // exact-weights cap search cut short; best-so-far cap
  kPhase1Feasible,  // certified-feasible phase-1 fallback F_hi served
  kReducedK,        // controller serves k' < k surviving paths
  kOutage,          // controller declares outage (no valid path set)
};

/// Short stable name for logs and benchmark tables.
const char* degradation_step_name(DegradationStep step);

struct SolveTelemetry {
  double wall_seconds = 0.0;
  int phase1_mcmf_calls = 0;
  std::int64_t phase1_vertices_settled = 0;  // over all phase-1 searches
  util::Rational lambda = 0;            // phase-1 breakpoint λ*
  util::Rational cost_lower_bound = 0;  // certified LP bound on C_OPT
  graph::Cost cost_guess_used = 0;      // final cap Ĉ†
  int guess_attempts = 0;               // cancellation runs across guesses
  bool phase1_was_optimal = false;
  bool used_feasible_fallback = false;  // returned phase-1 F_hi instead
  bool deadline_expired = false;        // a stage hit its wall-clock budget
  DegradationStep degradation = DegradationStep::kNone;
  CycleCancelTelemetry cancel;          // from the final successful run
};

struct Solution {
  SolveStatus status = SolveStatus::kFailed;
  PathSet paths;
  graph::Cost cost = 0;
  graph::Delay delay = 0;
  SolveTelemetry telemetry;

  [[nodiscard]] bool has_paths() const {
    return status == SolveStatus::kOptimal || status == SolveStatus::kApprox ||
           status == SolveStatus::kApproxDelayOver;
  }
};

/// Phase 1's answer as a Solution: its status (kApprox also when the delay
/// exceeds D), paths, cost and delay, and its telemetry (MCMF calls,
/// vertices settled, λ*, the LP bound on C_OPT, deadline expiry,
/// phase1_was_optimal). The solver and the phase-1 baselines start from it.
Solution from_phase1(const Phase1Result& p1);

struct SolveWorkspace;

class KrspSolver {
 public:
  explicit KrspSolver(SolverOptions options = {}) : options_(options) {}

  /// Every mode starts with phase 1, which validates `inst` in full
  /// (Instance::validate) before any algorithm reads it, and throws
  /// util::CheckError on an invalid instance.
  [[nodiscard]] Solution solve(const Instance& inst) const;

  /// Solve against an absolute deadline (overrides options().deadline_
  /// seconds). Lets callers with an external clock — the scaled wrapper's
  /// inner solver, the resilience controller mid-event — share one budget
  /// across nested solves instead of re-anchoring it. A non-null `ws`
  /// reuses per-thread scratch (core/workspace.h): allocation-free hot
  /// paths on repeat solves, identical results.
  [[nodiscard]] Solution solve(const Instance& inst,
                               const util::Deadline& deadline,
                               SolveWorkspace* ws = nullptr) const;

  [[nodiscard]] const SolverOptions& options() const { return options_; }

 private:
  /// Phase 1, then the Ĉ search of kExactWeights or kScaled mode: the
  /// modes differ only in what one guess runs.
  [[nodiscard]] Solution solve_with_cap_search(const Instance& inst,
                                               const util::Deadline& deadline,
                                               SolveWorkspace* ws) const;
  [[nodiscard]] Solution solve_phase1_only(const Instance& inst,
                                           const util::Deadline& deadline,
                                           SolveWorkspace* ws) const;

  SolverOptions options_;
};

}  // namespace krsp::core
