#include "baselines/unsafe_cc.h"

#include "core/cycle_cancel.h"
#include "core/phase1.h"
#include "util/timer.h"

namespace krsp::baselines {

core::Solution unsafe_cycle_cancel(const core::Instance& inst) {
  const util::WallTimer timer;
  const auto p1 = core::phase1_lagrangian(inst);
  core::Solution s;
  s.telemetry.phase1_mcmf_calls = p1.mcmf_calls;
  s.telemetry.phase1_vertices_settled = p1.vertices_settled;
  s.telemetry.cost_lower_bound = p1.cost_lower_bound;
  switch (p1.status) {
    case core::Phase1Status::kNoKDisjointPaths:
      s.status = core::SolveStatus::kNoKDisjointPaths;
      s.telemetry.wall_seconds = timer.seconds();
      return s;
    case core::Phase1Status::kInfeasible:
      s.status = core::SolveStatus::kInfeasible;
      s.telemetry.wall_seconds = timer.seconds();
      return s;
    case core::Phase1Status::kOptimal:
      s.status = core::SolveStatus::kOptimal;
      s.paths = p1.paths;
      s.cost = p1.cost;
      s.delay = p1.delay;
      s.telemetry.wall_seconds = timer.seconds();
      return s;
    case core::Phase1Status::kApprox:
      break;
  }
  if (p1.delay <= inst.delay_bound) {
    s.status = core::SolveStatus::kApprox;
    s.paths = p1.paths;
    s.cost = p1.cost;
    s.delay = p1.delay;
    s.telemetry.wall_seconds = timer.seconds();
    return s;
  }

  core::CycleCancelOptions options;
  options.unsafe_no_cap = true;
  const auto r = core::cancel_cycles(inst, p1.paths, /*cost_guess=*/0,
                                     options);
  if (r.status != core::CancelStatus::kSuccess) {
    s.status = r.status == core::CancelStatus::kNoBicameralCycle
                   ? core::SolveStatus::kInfeasible
                   : core::SolveStatus::kFailed;
  } else {
    s.status = core::SolveStatus::kApprox;
    s.paths = r.paths;
    s.cost = r.cost;
    s.delay = r.delay;
  }
  s.telemetry.cancel = r.telemetry;
  s.telemetry.wall_seconds = timer.seconds();
  return s;
}

}  // namespace krsp::baselines
