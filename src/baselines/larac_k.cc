#include "baselines/larac_k.h"

#include "core/phase1.h"
#include "util/timer.h"

namespace krsp::baselines {

core::Solution larac_k(const core::Instance& inst) {
  const util::WallTimer timer;
  const auto p1 = core::phase1_lagrangian(inst);
  core::Solution s;
  s.telemetry.phase1_mcmf_calls = p1.mcmf_calls;
  s.telemetry.phase1_vertices_settled = p1.vertices_settled;
  s.telemetry.lambda = p1.lambda;
  s.telemetry.cost_lower_bound = p1.cost_lower_bound;
  switch (p1.status) {
    case core::Phase1Status::kNoKDisjointPaths:
      s.status = core::SolveStatus::kNoKDisjointPaths;
      break;
    case core::Phase1Status::kInfeasible:
      s.status = core::SolveStatus::kInfeasible;
      break;
    case core::Phase1Status::kOptimal:
      s.status = core::SolveStatus::kOptimal;
      s.paths = p1.paths;
      break;
    case core::Phase1Status::kApprox:
      KRSP_CHECK(p1.feasible_alternative.has_value());
      s.status = core::SolveStatus::kApprox;
      s.paths = *p1.feasible_alternative;
      break;
  }
  if (s.has_paths()) {
    s.cost = s.paths.total_cost(inst.graph);
    s.delay = s.paths.total_delay(inst.graph);
  }
  s.telemetry.wall_seconds = timer.seconds();
  return s;
}

}  // namespace krsp::baselines
