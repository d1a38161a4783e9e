#include "resilience/audit.h"

#include <limits>

#include "core/scaling.h"

namespace krsp::resilience {

graph::Delay audited_delay_cap(const core::Instance& inst,
                               const core::SolverOptions& options) {
  switch (options.mode) {
    case core::SolverOptions::Mode::kExactWeights:
      return inst.delay_bound;
    case core::SolverOptions::Mode::kScaled:
      return core::scaled_delay_limit(options.eps1, inst.delay_bound);
    case core::SolverOptions::Mode::kPhase1Only:
      // 2·D, saturating: D may be any non-negative int64.
      return inst.delay_bound > std::numeric_limits<graph::Delay>::max() / 2
                 ? std::numeric_limits<graph::Delay>::max()
                 : 2 * inst.delay_bound;
  }
  return inst.delay_bound;
}

AuditReport audit_served_paths(
    const core::Instance& live, const core::PathSet& served,
    const std::unordered_set<graph::EdgeId>& failed_edges,
    graph::Delay delay_cap, graph::Cost expected_cost,
    graph::Delay expected_delay) {
  AuditReport report;
  report.paths_served = served.size();

  if (served.size() > 0) {
    KRSP_CHECK_MSG(served.size() <= live.k,
                   "audit: serving " << served.size() << " paths but k = "
                                     << live.k);
    // PathSet::is_valid checks exactly-k; audit against the served count so
    // reduced-k service still validates structure and disjointness.
    core::Instance as_served = live;
    as_served.k = served.size();
    std::string why;
    KRSP_CHECK_MSG(served.is_valid(as_served, &why), "audit: " << why);

    for (const auto& path : served.paths())
      for (const graph::EdgeId e : path)
        KRSP_CHECK_MSG(!failed_edges.count(e),
                       "audit: served path uses failed edge " << e);

    report.cost = served.total_cost(live.graph);
    report.delay = served.total_delay(live.graph);
    KRSP_CHECK_MSG(report.delay <= delay_cap,
                   "audit: served delay " << report.delay
                                          << " exceeds cap " << delay_cap);
  }

  KRSP_CHECK_MSG(report.cost == expected_cost,
                 "audit: cost bookkeeping drift — recorded "
                     << expected_cost << ", recomputed " << report.cost);
  KRSP_CHECK_MSG(report.delay == expected_delay,
                 "audit: delay bookkeeping drift — recorded "
                     << expected_delay << ", recomputed " << report.delay);
  return report;
}

}  // namespace krsp::resilience
