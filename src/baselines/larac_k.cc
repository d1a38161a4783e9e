#include "baselines/larac_k.h"

#include "core/phase1.h"
#include "util/timer.h"

namespace krsp::baselines {

core::Solution larac_k(const core::Instance& inst) {
  const util::WallTimer timer;
  const auto p1 = core::phase1_lagrangian(inst);
  core::Solution s = core::from_phase1(p1);
  if (s.status == core::SolveStatus::kApprox) {
    // LARAC-k serves the delay-feasible side of the bracket.
    KRSP_CHECK(p1.feasible_alternative.has_value());
    s.paths = *p1.feasible_alternative;
    s.cost = s.paths.total_cost(inst.graph);
    s.delay = s.paths.total_delay(inst.graph);
  }
  s.telemetry.wall_seconds = timer.seconds();
  return s;
}

}  // namespace krsp::baselines
