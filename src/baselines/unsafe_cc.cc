#include "baselines/unsafe_cc.h"

#include "core/cycle_cancel.h"
#include "core/phase1.h"
#include "util/timer.h"

namespace krsp::baselines {

core::Solution unsafe_cycle_cancel(const core::Instance& inst) {
  const util::WallTimer timer;
  const auto p1 = core::phase1_lagrangian(inst);
  core::Solution s = core::from_phase1(p1);
  if (s.status == core::SolveStatus::kApprox && s.delay > inst.delay_bound) {
    core::CycleCancelOptions options;
    options.unsafe_no_cap = true;
    const auto r = core::cancel_cycles(inst, p1.paths, /*cost_guess=*/0,
                                       options);
    if (r.status == core::CancelStatus::kSuccess) {
      s.paths = r.paths;
      s.cost = r.cost;
      s.delay = r.delay;
    } else {
      s.status = r.status == core::CancelStatus::kNoBicameralCycle
                     ? core::SolveStatus::kInfeasible
                     : core::SolveStatus::kFailed;
      s.paths = core::PathSet();
      s.cost = 0;
      s.delay = 0;
    }
    s.telemetry.cancel = r.telemetry;
  }
  s.telemetry.wall_seconds = timer.seconds();
  return s;
}

}  // namespace krsp::baselines
